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

from .cliquetree import Clique, CliqueTree
from .factors import (
    Factor,
    OpCounters,
    multiply,
    normalize_conditional,
    ones_factor,
    sum_out,
)
from .network import BayesianNetwork


@dataclass(frozen=True)
class CliqueState:
    """Stored tables for one clique; records are replaced, never edited.

    In a pristine record ``potential`` is the product of assigned CPTs,
    ``conditional`` holds P(residual | separator), and ``message`` is what
    the collect pass sent to the parent (for a root, the component mass as
    an empty-scope table).  In the engine's live record ``potential`` is
    that product sliced by the current evidence, and a root with evidence
    below it holds the unnormalized product as its ``conditional``, so its
    ``message`` totals P(evidence) for the component.
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
        pot = ones_factor(tuple(bn.var(n) for n in c.members))
        for name in assigned[c.id]:
            pot = multiply(pot, bn.cpt(name))
        potentials[c.id] = pot
    return potentials


def collect_step(
    clique: Clique, product: Factor, counters: OpCounters | None = None
) -> tuple[Factor, Factor]:
    """Split a clique's potential times its children's messages.

    Returns P(residual | separator), the product normalized over the
    residual variables still in its scope, and the message for the parent,
    the product summed over them.
    """
    residual = [r for r in clique.residual if r in product.names]
    conditional = normalize_conditional(product, residual)
    return conditional, sum_out(product, residual, counters)


def collect_conditionals(
    tree: CliqueTree, potentials: dict[int, Factor]
) -> tuple[dict[int, Factor], dict[int, Factor]]:
    """Decreasing-rank pass producing P(residual | separator) per clique.

    Returns the conditionals and every clique's message.  A root's message
    has empty scope and holds that component's normalization mass, which
    is 1 up to rounding for a valid network.
    """
    conditionals: dict[int, Factor] = {}
    messages: dict[int, Factor] = {}
    for c in reversed(tree.cliques):
        product = potentials[c.id]
        for ch in tree.children[c.id]:  # ascending rank
            product = multiply(product, messages[ch])
        conditionals[c.id], messages[c.id] = collect_step(c, product)
    return conditionals, messages


def distribute_marginals(
    tree: CliqueTree, conditionals: dict[int, Factor]
) -> dict[int, Factor]:
    """Increasing-rank pass producing each clique's joint P(members)."""
    marginals: dict[int, Factor] = {}
    for c in tree.cliques:
        if c.parent is None:
            marginals[c.id] = conditionals[c.id]
        else:
            parent = tree.cliques[c.parent]
            drop = set(parent.members) - set(c.separator)
            sep_marginal = sum_out(marginals[c.parent], drop)
            marginals[c.id] = multiply(conditionals[c.id], sep_marginal)
    return marginals


def node_marginals(
    bn: BayesianNetwork, tree: CliqueTree, marginals: dict[int, Factor]
) -> dict[str, Factor]:
    """Single-variable marginals, read from the lowest-ranked containing clique."""
    out: dict[str, Factor] = {}
    for name in bn.names:
        cid = tree.containing[name][0]
        members = set(tree.cliques[cid].members)
        out[name] = sum_out(marginals[cid], members - {name})
    return out


def preprocess(bn: BayesianNetwork, tree: CliqueTree) -> dict[int, CliqueState]:
    """The pristine record of every clique, keyed by clique id."""
    potentials = compute_potentials(bn, tree, assign_cpts(bn, tree))
    conditionals, messages = collect_conditionals(tree, potentials)
    return {
        c.id: CliqueState(potentials[c.id], conditionals[c.id], messages[c.id])
        for c in tree.cliques
    }
