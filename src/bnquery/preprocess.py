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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliquetree import Clique, CliqueTree
from .factors import (
    Factor,
    OpCounters,
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
    A root's message has empty scope and holds its component's mass,
    P(evidence) for that component.
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
    """Product of assigned CPTs per clique, extended to the full member scope."""
    assigned = _assigned_by_clique(tree, assignment)
    potentials: dict[int, Factor] = {}
    for c in tree.cliques:
        scope = tuple(bn.var(n) for n in c.members)
        ones = np.ones(tuple(v.cardinality for v in scope))
        pot = Factor._trusted(scope, c.members, ones)
        for name in assigned[c.id]:
            pot = multiply(pot, bn.cpt(name))
        potentials[c.id] = pot
    return potentials


def collect_step(
    clique: Clique,
    potential: Factor,
    messages: list[Factor],
    counters: OpCounters | None = None,
) -> CliqueState:
    """One clique's record from its potential and its children's messages.

    The product of the potential and the messages (in the order given)
    splits into P(residual | separator), normalized over the residual
    variables still in its scope, and the message for the parent, the
    product summed over them.  One reduction serves both: the sums divide
    the product (0/0 := 0, as in ``normalize_conditional``) and, reshaped,
    are the message, counted as ``sum_out`` counts its summations.
    """
    product = potential
    for message in messages:
        product = multiply(product, message, counters)
    residual = set(clique.residual)
    values = product.values
    axes = tuple(i for i, n in enumerate(product.names) if n in residual)
    sums = values.sum(axis=axes, keepdims=True)
    conditional = np.divide(values, sums, out=np.zeros_like(values), where=sums != 0)
    keep = [i for i, n in enumerate(product.names) if n not in residual]
    total = sums.reshape([values.shape[i] for i in keep])
    if counters is not None:
        counters.summations += values.size - total.size
    _check_finite(total)
    return CliqueState(
        potential,
        Factor._trusted(product.scope, product.names, conditional),
        Factor._trusted(
            tuple(product.scope[i] for i in keep),
            tuple(product.names[i] for i in keep),
            total,
        ),
    )


def collect_conditionals(
    tree: CliqueTree, potentials: dict[int, Factor]
) -> dict[int, CliqueState]:
    """Decreasing-rank pass producing every clique's record.

    A root's message has empty scope and holds that component's
    normalization mass, which is 1 up to rounding for a valid network.
    """
    records: dict[int, CliqueState] = {}
    for c in reversed(tree.cliques):
        messages = [records[ch].message for ch in tree.children[c.id]]  # ascending rank
        records[c.id] = collect_step(c, potentials[c.id], messages)
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
