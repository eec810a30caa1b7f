"""Undirected-graph steps of clique-tree construction.

Moralization, greedy elimination ordering, fill-in triangulation, and
elimination-clique harvesting.  Vertices keep their insertion order (the
network's declaration order), which is the tie-break priority used by all
deterministic choices downstream.

Cost model, for n vertices, m edges of the filled graph and d the degree
of a vertex when it is eliminated: ``min_fill_order`` scores every vertex
once and then pays O(d²) per elimination for the fill loop over the
eliminated vertex's neighbours, plus a set intersection per fill edge and
O(log n) per changed score; ``triangulate`` pays the same O(d²) loop;
``mcs_numbering`` is O((n + m) log n) and ``find_cliques`` O(n + m).  No
stage re-scans all remaining vertices per step.  Each returns exactly what
the direct quadratic algorithms return, tie-breaks included; the tests
keep those algorithms as references.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import CompilationError
from .network import BayesianNetwork


class UndirectedGraph:
    """Simple undirected graph with insertion-ordered vertices."""

    def __init__(self, vertices: Iterable[str] = ()):
        self._order: list[str] = []
        self._adj: dict[str, set[str]] = {}
        for v in vertices:
            self.add_vertex(v)

    def add_vertex(self, v: str) -> None:
        if v not in self._adj:
            self._order.append(v)
            self._adj[v] = set()

    def add_edge(self, u: str, v: str) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u!r}")
        if u not in self._adj or v not in self._adj:
            missing = u if u not in self._adj else v
            raise ValueError(f"edge references unknown vertex {missing!r}")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: str) -> set[str]:
        return set(self._adj[v])

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(self._order)

    def edges(self) -> set[frozenset[str]]:
        out: set[frozenset[str]] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                out.add(frozenset((u, v)))
        return out

    def copy(self) -> "UndirectedGraph":
        g = UndirectedGraph(self._order)
        for u in self._order:
            g._adj[u] = set(self._adj[u])
        return g

    def __len__(self):
        return len(self._order)


def moralize(bn: BayesianNetwork) -> UndirectedGraph:
    """Drop arc directions and link every variable's parents pairwise."""
    g = UndirectedGraph(bn.names)
    for name in bn.names:
        ps = bn.parents[name]
        for p in ps:
            g.add_edge(p, name)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                g.add_edge(ps[i], ps[j])
    return g


def _fill_cost(adj: dict[str, set[str]], v: str) -> int:
    """Missing edges among the neighbours of `v`: C(d, 2) minus present ones.

    Each neighbour's adjacency is intersected with the neighbourhood, so a
    hub whose neighbours are sparsely linked costs O(d), not O(d²).
    """
    nbrs = adj[v]
    d = len(nbrs)
    present = sum(len(adj[u] & nbrs) for u in nbrs) // 2
    return d * (d - 1) // 2 - present


def min_fill_order(g: UndirectedGraph) -> tuple[str, ...]:
    """Greedy minimum-fill elimination order.

    At each step the vertex whose elimination adds the fewest fill edges is
    removed; ties go to the lexicographically smallest name, so the result
    is deterministic for a given graph.

    Every vertex is scored once; the scores then live in a heap keyed
    ``(cost, name)`` with lazy deletion, and each elimination updates them
    by deltas (Kjærulff 1990).  A fill edge (a, b) lowers every common
    neighbour of a and b by one and raises a (likewise b) by the neighbours
    it has that b lacks; dropping the eliminated v then lowers each former
    neighbour w by the neighbours of w outside N(v).  One step costs the
    fill-edge loop over N(v) plus set intersections of the touched vertices'
    adjacencies, instead of re-scoring every remaining vertex.
    """
    adj = {v: g.neighbors(v) for v in g.vertices}
    cost = {v: _fill_cost(adj, v) for v in adj}
    heap = [(c, v) for v, c in cost.items()]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        c, v = heapq.heappop(heap)
        if cost.get(v) != c:
            continue  # eliminated, or a stale score
        order.append(v)
        nbrs = adj.pop(v)
        del cost[v]
        changed: set[str] = set()
        ordered = list(nbrs)  # the deltas sum the same in any order
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if b in adj[a]:
                    continue
                common = adj[a] & adj[b]
                for w in common:
                    if w != v:
                        cost[w] -= 1
                        changed.add(w)
                cost[a] += len(adj[a]) - len(common)
                cost[b] += len(adj[b]) - len(common)
                adj[a].add(b)
                adj[b].add(a)
                changed.update((a, b))
        # N(v) is now a clique, so w's neighbours outside N(v) number
        # |adj(w)| - |N(v)| (adj(w) still holds v, N(v) holds w).
        for w in nbrs:
            cost[w] -= len(adj[w]) - len(nbrs)
            adj[w].discard(v)
            changed.add(w)
        for w in changed:
            heapq.heappush(heap, (cost[w], w))
    return tuple(order)


def triangulate(
    g: UndirectedGraph, order: Sequence[str]
) -> tuple[UndirectedGraph, tuple[tuple[str, str], ...]]:
    """Simulate elimination along `order`, adding the induced fill edges.

    Returns the filled graph and the fill edges in discovery order.  The
    returned graph is chordal; re-running with the same order adds nothing.
    """
    order = tuple(order)
    if sorted(order) != sorted(g.vertices):
        raise CompilationError(
            "elimination order must be a permutation of the graph vertices"
        )
    filled = g.copy()
    adj = {v: filled.neighbors(v) for v in filled.vertices}
    fill: list[tuple[str, str]] = []
    for v in order:
        nbrs = sorted(adj[v])
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                a, b = nbrs[i], nbrs[j]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    filled.add_edge(a, b)
                    fill.append((a, b))
        for n in nbrs:
            adj[n].discard(v)
        del adj[v]
    return filled, tuple(fill)


def find_cliques(g: UndirectedGraph, order: Sequence[str]) -> tuple[frozenset[str], ...]:
    """Maximal cliques of a triangulated graph, in discovery order.

    Each candidate is the closed neighborhood C_v of a vertex at its
    elimination time, {v} plus its later neighbours; candidates contained
    in another candidate are dropped.  `g` must already be triangulated for
    `order`, which makes `order` a perfect elimination order.  Then C_v is
    not maximal iff some earlier u has v as its earliest later neighbour
    and one more later neighbour than v (the follower rule), so one pass
    over the edges finds the maximal cliques in O(n + m).
    """
    position = {v: i for i, v in enumerate(order)}
    later: list[list[str]] = []
    # most later neighbours of any u whose earliest later neighbour is v
    widest_follower = [-1] * len(order)
    for i, v in enumerate(order):
        nbrs = [n for n in g._adj[v] if position[n] > i]
        later.append(nbrs)
        if nbrs:
            first = min(position[n] for n in nbrs)
            widest_follower[first] = max(widest_follower[first], len(nbrs))
    return tuple(
        frozenset(nbrs).union((v,))
        for v, nbrs, widest in zip(order, later, widest_follower)
        if widest != len(nbrs) + 1
    )


def mcs_numbering(g: UndirectedGraph, priority: dict[str, int]) -> dict[str, int]:
    """Maximum-cardinality-search positions (1-based).

    Repeatedly numbers the vertex with the most already-numbered neighbors;
    ties go to the smallest `priority` value (declaration order), then to
    the earlier vertex, making the numbering deterministic.

    The candidates sit in a heap keyed ``(-count, priority, index)`` with
    lazy deletion: numbering a vertex pushes one fresh entry per unnumbered
    neighbour, so the whole search costs O((n + m) log n).
    """
    vertices = g.vertices
    counts = [0] * len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    heap = [(0, priority[v], i) for i, v in enumerate(vertices)]
    heapq.heapify(heap)
    numbered: dict[str, int] = {}
    while heap:
        neg, _, i = heapq.heappop(heap)
        best = vertices[i]
        if best in numbered or -neg != counts[i]:
            continue  # numbered already, or a stale count
        numbered[best] = len(numbered) + 1
        for n in g._adj[best]:
            if n not in numbered:
                j = index[n]
                counts[j] += 1
                heapq.heappush(heap, (-counts[j], priority[n], j))
    return numbered
