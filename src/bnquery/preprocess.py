"""Per-clique distributions computed ahead of any query.

Each clique is charged with the CPTs of the variables whose family it is
the lowest-ranked clique to contain.  The collect pass runs
``collect_step`` in decreasing rank: a clique's potential times its
children's messages splits into the conditional of its residual given its
separator and the message (that product summed over the residual) for its
parent.  ``preprocess`` returns one pristine ``CliqueState`` per clique;
the query engine keeps these beside a live map of the same records and
reruns the same step over the cliques a finding touches.  All
multiplication orders are fixed (CPTs by variable name, child messages by
child rank) so repeated runs are bit-identical.

Both steps work on the arrays and build only the factors they return.  A
potential is the broadcast product of its CPTs, with no ones table: a
clique holding one CPT over its members in member order shares that
CPT's table, and ones appear only on axes no CPT covers.  A collect step
multiplies the child messages into the potential's own scope and checks
finiteness once, on the sums it takes; the tables in between are never
wrapped or checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cliquetree import CliqueTree
from .factors import (
    Factor,
    OpCounters,
    _aligned,
    _check_finite,
    multiply,
    sum_out,
)
from .network import BayesianNetwork


@dataclass(frozen=True)
class CliqueState:
    """Stored tables for one clique; records are replaced, never edited.

    Pristine or live, root or not, the fields mean the same thing:
    ``potential`` is the product of the clique's assigned CPTs (in a live
    record, sliced by the current evidence), ``conditional`` is
    P(residual | separator, evidence below), and ``message`` is the
    potential times the children's messages, summed over the residual.
    The root's message, clique 0's, has empty scope and holds the mass
    P(evidence).
    """

    potential: Factor
    conditional: Factor
    message: Factor


def assign_cpts(bn: BayesianNetwork, tree: CliqueTree) -> dict[str, int]:
    """Map each variable's CPT to the lowest-ranked clique holding its family."""
    assignment: dict[str, int] = {}
    for name in bn.names:
        family = set(bn.family(name))
        for cid in tree.containing[name]:  # ascending rank
            if family <= tree.cliques[cid].member_set:
                assignment[name] = cid
                break
        else:  # compile_network guarantees containment
            raise AssertionError(f"no clique contains the family of {name!r}")
    return assignment


def _assigned_by_clique(
    tree: CliqueTree, assignment: dict[str, int]
) -> dict[int, tuple[str, ...]]:
    """The names assigned to each clique, sorted."""
    groups: dict[int, tuple[str, ...]] = {c.id: () for c in tree.cliques}
    for name in sorted(assignment):
        groups[assignment[name]] += (name,)
    return groups


def compute_potentials(
    bn: BayesianNetwork, tree: CliqueTree, assignment: dict[str, int]
) -> dict[int, Factor]:
    """Product of assigned CPTs per clique, extended to the full member scope.

    The CPTs, aligned to the member order, are multiplied by broadcasting
    in name order (no ones table: ``1.0 * x == x``, so the bits are those
    of a ones table multiplied by each CPT in turn).  A clique holding one
    CPT over its members in member order shares that CPT's table, and only
    the axes that no CPT covers are filled, by repetition.
    """
    assigned = _assigned_by_clique(tree, assignment)
    cpts = bn.cpts
    potentials: dict[int, Factor] = {}
    for c in tree.cliques:
        names = assigned[c.id]
        if len(names) == 1:
            cpt = cpts[names[0]]
            # C order, as the reductions over a potential expect
            if cpt.names == c.members and cpt.values.flags.c_contiguous:
                potentials[c.id] = cpt
                continue
        scope = tuple(bn.var(n) for n in c.members)
        shape = tuple(v.cardinality for v in scope)
        pos = {n: i for i, n in enumerate(c.members)}
        tables = [_aligned(cpts[n].values, cpts[n].names, pos, len(shape)) for n in names]
        values = reduce(np.multiply, tables) if tables else np.ones(())
        values = np.ascontiguousarray(np.broadcast_to(values, shape))
        potentials[c.id] = Factor._trusted(scope, c.members, values)
    return potentials


def collect_step(
    tree: CliqueTree,
    cid: int,
    potential: Factor,
    records: dict[int, CliqueState],
    counters: OpCounters | None = None,
) -> CliqueState:
    """Clique ``cid``'s record from its potential and its children's records.

    The product of the potential and the child messages (ascending rank)
    splits into P(residual | separator), normalized over the residual
    variables still in its scope, and the message for the parent, the
    product summed over them.  One reduction serves both: the sums divide
    the product (0/0 := 0, as in ``normalize_conditional``) and, reshaped,
    are the message, counted as ``sum_out`` counts its summations.

    A message's scope lies inside the potential's (a child's separator,
    less its observed names, is inside the clique's members, less the
    same names), so the product keeps the potential's scope and is formed
    on the arrays.  Finiteness is checked once, on the sums: a product
    cell that overflowed makes its sum infinite or NaN.

    A child with an empty separator is a component hung here, and its
    message, the mass of that component and those below it, multiplies
    only the message: no conditional holds another component's mass.  A
    zero mass is impossible evidence and zeroes the conditional; a product
    of nonzero masses below float range is kept at the least positive float.
    """
    clique = tree.cliques[cid]
    names = potential.names
    pos = {n: i for i, n in enumerate(names)}
    values = potential.values
    masses: list[float] = []
    for ch in tree.children[cid]:  # ascending rank
        message = records[ch].message
        if not tree.cliques[ch].separator:
            masses.append(message.total())
            continue
        aligned = _aligned(message.values, message.names, pos, len(pos))
        values = np.asarray(values * aligned)
        if counters is not None:
            counters.multiplications += values.size
    residual = set(clique.residual)
    axes = tuple(i for i, n in enumerate(names) if n in residual)
    sums = values.sum(axis=axes, keepdims=True)
    conditional = np.divide(values, sums, out=np.zeros_like(values), where=sums != 0)
    keep = [i for i, n in enumerate(names) if n not in residual]
    total = sums.reshape([values.shape[i] for i in keep])
    if counters is not None:
        counters.summations += values.size - total.size
    _check_finite(total)
    if masses:  # only a first clique has hung children: ``total`` is a scalar
        mass = math.prod(masses, start=float(total))
        if counters is not None:
            counters.multiplications += len(masses)
        if 0.0 in masses:
            conditional = np.zeros_like(values)
        elif total and not mass:
            mass = math.ulp(0.0)
        total = np.asarray(mass)
    return CliqueState(
        potential,
        Factor._trusted(potential.scope, names, conditional),
        Factor._trusted(
            tuple(potential.scope[i] for i in keep),
            tuple(names[i] for i in keep),
            total,
        ),
    )


def collect_conditionals(
    tree: CliqueTree, potentials: dict[int, Factor]
) -> dict[int, CliqueState]:
    """Decreasing-rank pass producing every clique's record.

    The root's message has empty scope and holds the normalization mass,
    which is 1 up to rounding for a valid network.
    """
    records: dict[int, CliqueState] = {}
    for c in reversed(tree.cliques):
        records[c.id] = collect_step(tree, c.id, potentials[c.id], records)
    return {c.id: records[c.id] for c in tree.cliques}


def distribute_marginals(
    tree: CliqueTree, conditionals: dict[int, Factor]
) -> dict[int, Factor]:
    """Increasing-rank pass producing each clique's joint P(members | evidence).

    Each table is summed down to the child's separator over its own scope,
    so variables sliced out by evidence are simply absent.
    """
    marginals: dict[int, Factor] = {}
    for c in tree.cliques:
        if c.parent is None:
            marginals[c.id] = conditionals[c.id]
        else:
            parent = marginals[c.parent]
            drop = [n for n in parent.names if n not in c.separator]
            marginals[c.id] = multiply(conditionals[c.id], sum_out(parent, drop))
    return marginals


def node_marginals(
    bn: BayesianNetwork, tree: CliqueTree, marginals: dict[int, Factor]
) -> dict[str, Factor]:
    """Single-variable marginals, read from the lowest-ranked containing clique."""
    out: dict[str, Factor] = {}
    for name in bn.names:
        m = marginals[tree.containing[name][0]]
        out[name] = sum_out(m, [n for n in m.names if n != name])
    return out


def preprocess(bn: BayesianNetwork, tree: CliqueTree) -> dict[int, CliqueState]:
    """The pristine record of every clique, keyed by clique id."""
    return collect_conditionals(tree, compute_potentials(bn, tree, assign_cpts(bn, tree)))
