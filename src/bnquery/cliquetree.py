"""Clique-tree assembly: rank cliques, link parents, derive separators.

Ranking follows a maximum-cardinality-search numbering of the triangulated
graph: a clique's rank key is the highest MCS position among its members
(ties broken by the sorted member list).  A clique's separator is its
overlap with the union of all lower-ranked cliques, and its parent is the
most recently ranked earlier clique containing that separator, which
reproduces the classic cluster-tree shape.  Every network compiles to one
tree rooted at clique 0: numbered in rank order, component j >= 1 hangs
its first clique (empty separator) from that of component (j - 1) // 2,
so no clique takes more than two and depth grows by log2(components).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import CompilationError
from .graphs import (
    UndirectedGraph,
    find_cliques,
    mcs_numbering,
    min_fill_order,
    moralize,
    triangulate,
)
from .network import BayesianNetwork


@dataclass(frozen=True)
class Clique:
    """One ranked clique: members = separator + residual (disjoint)."""

    id: int
    members: tuple[str, ...]
    separator: tuple[str, ...]
    residual: tuple[str, ...]
    parent: int | None

    @cached_property  # kept outside the fields, so equality stays field-based
    def member_set(self) -> frozenset[str]:
        return frozenset(self.members)


class CliqueTree:
    """Ordered cliques with parent links, children and separators.

    Clique ids are ranks, a parent ranks before its children, and clique 0
    is the one root.  ``children[cid]`` lists a clique's children in
    ascending rank.  ``owner[name]`` is the clique holding ``name`` in its
    residual, the top of the connected set of cliques containing it
    (running intersection), so the cliques whose subtrees hold ``name``
    are ``path_up(owner[name])``.
    """

    def __init__(
        self,
        cliques: Sequence[Clique],
        fill_edges: tuple[tuple[str, str], ...],
        elimination_order: tuple[str, ...],
    ):
        self.cliques: tuple[Clique, ...] = tuple(cliques)
        self.fill_edges = fill_edges
        self.elimination_order = elimination_order

        children: dict[int, list[int]] = {c.id: [] for c in self.cliques}
        for c in self.cliques:
            if c.parent is not None:
                children[c.parent].append(c.id)
        self.children: dict[int, tuple[int, ...]] = {
            cid: tuple(ids) for cid, ids in children.items()
        }

        containing: dict[str, list[int]] = {}
        self.owner: dict[str, int] = {}
        for c in self.cliques:
            for name in c.members:
                containing.setdefault(name, []).append(c.id)
            for name in c.residual:
                if name in self.owner:
                    raise CompilationError(
                        f"variable {name!r} is in two residuals; tree is inconsistent"
                    )
                self.owner[name] = c.id
        self.containing: dict[str, tuple[int, ...]] = {
            name: tuple(ids) for name, ids in containing.items()
        }
        self._compact = all(len(name) == 1 for name in self.owner)

    def path_up(self, cid: int) -> Iterator[int]:
        """The clique ``cid``, then its ancestors, nearest first."""
        cliques = self.cliques
        while cid is not None:
            yield cid
            cid = cliques[cid].parent

    def subtree_variables(self, cid: int) -> frozenset[str]:
        """Every variable in a clique's subtree, gathered on demand."""
        names: set[str] = set()
        stack = [cid]
        while stack:
            d = stack.pop()
            names.update(self.cliques[d].members)
            stack.extend(self.children[d])
        return frozenset(names)

    def label(self, cid: int) -> str:
        return "(" + self._join(self.cliques[cid].members) + ")"

    def _join(self, names: Sequence[str]) -> str:
        """Names run together when every name in the network is one
        character long, and comma-separated otherwise."""
        return ("" if self._compact else ",").join(names)

    def to_dot(self) -> str:
        """Graphviz rendering: boxes for cliques, separators on the edges."""
        lines = ["graph cliquetree {", "  node [shape=box];"]
        for c in self.cliques:
            lines.append(f'  c{c.id} [label="{" ".join(c.members)}"];')
        for c in self.cliques:
            if c.parent is not None:
                sep = " ".join(c.separator)
                lines.append(f'  c{c.parent} -- c{c.id} [label="{sep}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def order_cliques(
    cliques: Sequence[frozenset[str]],
    g: UndirectedGraph,
    priority: dict[str, int],
) -> list[Clique]:
    """Rank raw clique sets and derive separators, residuals, and parents."""
    numbering = mcs_numbering(g, priority)
    ranked = sorted(
        cliques,
        key=lambda c: (max(numbering[v] for v in c), sorted(c)),
    )

    def decl(names) -> tuple[str, ...]:
        return tuple(sorted(names, key=priority.__getitem__))

    out: list[Clique] = []
    seen: set[str] = set()
    firsts: list[int] = []  # each component's first clique
    for cid, members in enumerate(ranked):
        sep = frozenset(members & seen)
        res = members - sep
        parent = None
        if not sep:
            parent = firsts[(len(firsts) - 1) // 2] if firsts else None
            firsts.append(cid)
        else:
            for j in range(cid - 1, -1, -1):
                if sep <= ranked[j]:
                    parent = j
                    break
            if parent is None:
                raise CompilationError(
                    f"running intersection violated at clique {sorted(members)}: "
                    f"separator {sorted(sep)} is in no single earlier clique"
                )
        out.append(
            Clique(
                id=cid,
                members=decl(sep) + decl(res),
                separator=decl(sep),
                residual=decl(res),
                parent=parent,
            )
        )
        seen |= members
    return out


def compile_network(
    bn: BayesianNetwork, elimination_order: Sequence[str] | None = None
) -> CliqueTree:
    """Compile a network into a clique tree.

    With no explicit order, a greedy min-fill elimination order is used.
    Supplying an order makes the clique set reproducible independent of the
    heuristic.
    """
    moral = moralize(bn)
    order = min_fill_order(moral) if elimination_order is None else tuple(elimination_order)
    filled, fill_edges = triangulate(moral, order)
    raw = find_cliques(filled, order)
    priority = {name: i for i, name in enumerate(bn.names)}
    cliques = order_cliques(raw, filled, priority)
    tree = CliqueTree(cliques, fill_edges, order)
    _check_tree(bn, tree)
    return tree


def _check_tree(bn: BayesianNetwork, tree: CliqueTree) -> None:
    covered: set[str] = set()
    for c in tree.cliques:
        covered.update(c.members)
    missing = set(bn.names) - covered
    if missing:
        raise CompilationError(f"variables {sorted(missing)} appear in no clique")
    for name in bn.names:
        family = set(bn.family(name))
        if not any(
            family <= tree.cliques[cid].member_set for cid in tree.containing[name]
        ):
            raise CompilationError(
                f"family of {name!r} ({sorted(family)}) is contained in no clique"
            )
    for c in tree.cliques:
        if c.parent is not None:
            if not set(c.separator) <= tree.cliques[c.parent].member_set:
                raise CompilationError(
                    f"separator of clique {tree.label(c.id)} not inside its parent"
                )
            if c.parent >= c.id:
                raise CompilationError("parent links must point to lower ranks")
