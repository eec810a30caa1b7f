"""Moralization, elimination, triangulation, and clique-tree assembly."""

import hashlib
import time
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnquery
from bnquery import (
    CompilationError,
    UndirectedGraph,
    compile_network,
    find_cliques,
    mcs_numbering,
    min_fill_order,
    moralize,
    triangulate,
)
from corpus import (
    chain_parents,
    random_network,
    star_parents,
    structure_network,
    windowed_parents,
)
from reference import ref_find_cliques, ref_mcs_numbering, ref_min_fill_order


def graph_of(vertices, edges):
    g = UndirectedGraph(vertices)
    for u, v in edges:
        g.add_edge(u, v)
    return g


# -- moralize -----------------------------------------------------------------


def test_moralize_single_node():
    a = bnquery.Variable("a", ("0", "1"))
    bn = bnquery.BayesianNetwork(
        [a], {"a": ()}, {"a": bnquery.Factor([a], [0.5, 0.5])}
    )
    g = moralize(bn)
    assert g.vertices == ("a",)
    assert g.edges() == set()


def test_moralize_marries_v_structure():
    vs = {n: bnquery.Variable(n, ("0", "1")) for n in "BED"}
    bn = bnquery.BayesianNetwork(
        [vs["B"], vs["E"], vs["D"]],
        {"B": (), "E": (), "D": ("B", "E")},
        {
            "B": bnquery.Factor([vs["B"]], [0.5, 0.5]),
            "E": bnquery.Factor([vs["E"]], [0.5, 0.5]),
            "D": bnquery.Factor(
                [vs["B"], vs["E"], vs["D"]], np.full((2, 2, 2), 0.5)
            ),
        },
    )
    g = moralize(bn)
    assert g.edges() == {
        frozenset(p) for p in (("B", "D"), ("E", "D"), ("B", "E"))
    }


def test_moralize_asia_marries_both_parent_pairs(asia_bn):
    g = moralize(asia_bn)
    assert g.has_edge("T", "L")  # parents of E
    assert g.has_edge("B", "E")  # parents of D


# -- elimination order ----------------------------------------------------------


def test_tree_graph_eliminates_with_zero_fill():
    g = graph_of("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
    order = min_fill_order(g)
    assert sorted(order) == list("abcd")
    _, fill = triangulate(g, order)
    assert fill == ()
    assert min_fill_order(g) == order  # reproducible


def test_four_cycle_needs_one_chord():
    g = graph_of("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    _, fill = triangulate(g, min_fill_order(g))
    assert len(fill) == 1


def exhaustive_min_fill(g):
    """Exact minimum total fill over all elimination orders (memoized)."""
    vertices = tuple(sorted(g.vertices))
    base = frozenset(g.edges())

    @lru_cache(maxsize=None)
    def best(remaining, edges):
        if not remaining:
            return 0
        answer = None
        for v in remaining:
            nbrs = sorted(
                u for u in remaining if u != v and frozenset((u, v)) in edges
            )
            new_edges = set(edges)
            cost = 0
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    e = frozenset((nbrs[i], nbrs[j]))
                    if e not in new_edges:
                        new_edges.add(e)
                        cost += 1
            rest = frozenset(x for x in remaining if x != v)
            live = frozenset(e for e in new_edges if e <= rest)
            sub = cost + best(rest, live)
            if answer is None or sub < answer:
                answer = sub
        return answer

    live = frozenset(e for e in base)
    return best(frozenset(vertices), live)


def test_asia_minimum_fill_is_one_and_greedy_achieves_it(asia_bn):
    g = moralize(asia_bn)
    assert exhaustive_min_fill(g) == 1
    _, fill = triangulate(g, min_fill_order(g))
    assert len(fill) == 1
    assert set(fill[0]) in ({"L", "B"}, {"S", "E"})  # the two 4-cycle chords


def test_documented_asia_order_fills_l_b(asia_bn):
    g = moralize(asia_bn)
    filled, fill = triangulate(g, bnquery.ASIA_GOLDEN_ORDER)
    assert fill == (("B", "L"),)
    cliques = find_cliques(filled, bnquery.ASIA_GOLDEN_ORDER)
    assert frozenset("LEB") in cliques


# -- triangulate / find_cliques ---------------------------------------------------


def test_chordal_input_with_perfect_order_adds_nothing():
    g = graph_of("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    _, fill = triangulate(g, ("a", "b", "c"))
    assert fill == ()


def test_retriangulation_is_stable():
    g = graph_of("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    order = min_fill_order(g)
    filled, fill = triangulate(g, order)
    assert len(fill) == 1
    again, fill2 = triangulate(filled, order)
    assert fill2 == ()


def test_triangulate_rejects_partial_order():
    g = graph_of("ab", [("a", "b")])
    with pytest.raises(CompilationError):
        triangulate(g, ("a",))


@pytest.mark.parametrize("order", [[], ["A"]])
def test_compile_rejects_an_order_that_is_not_a_permutation(asia_bn, order):
    # an empty order is no request for min-fill
    with pytest.raises(CompilationError):
        compile_network(asia_bn, order)


def test_find_cliques_single_edge_and_triangle():
    g = graph_of("ab", [("a", "b")])
    assert find_cliques(g, ("a", "b")) == (frozenset("ab"),)
    g = graph_of("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert find_cliques(g, ("a", "b", "c")) == (frozenset("abc"),)


def test_asia_six_cliques(asia_bn):
    tree = compile_network(asia_bn, bnquery.ASIA_GOLDEN_ORDER)
    got = {c.member_set for c in tree.cliques}
    assert got == {
        frozenset("AT"),
        frozenset("TLE"),
        frozenset("LEB"),
        frozenset("BLS"),
        frozenset("EBD"),
        frozenset("EX"),
    }


# -- order_cliques / tree shape -----------------------------------------------------


def test_single_clique_tree():
    a = bnquery.Variable("a", ("0", "1"))
    b = bnquery.Variable("b", ("0", "1"))
    bn = bnquery.BayesianNetwork(
        [a, b],
        {"a": (), "b": ("a",)},
        {
            "a": bnquery.Factor([a], [0.5, 0.5]),
            "b": bnquery.Factor([a, b], [0.3, 0.7, 0.6, 0.4]),
        },
    )
    tree = compile_network(bn)
    assert len(tree.cliques) == 1
    c = tree.cliques[0]
    assert c.separator == () and set(c.residual) == {"a", "b"}
    assert tree.roots == (0,)


def test_asia_tree_structure(asia_bn):
    tree = compile_network(asia_bn, bnquery.ASIA_GOLDEN_ORDER)
    by_members = {c.member_set: c for c in tree.cliques}
    root = by_members[frozenset("AT")]
    assert root.parent is None and root.id == 0
    assert set(by_members[frozenset("TLE")].separator) == {"T"}
    assert set(by_members[frozenset("LEB")].separator) == {"L", "E"}
    assert set(by_members[frozenset("BLS")].separator) == {"B", "L"}
    assert set(by_members[frozenset("EBD")].separator) == {"E", "B"}
    assert set(by_members[frozenset("EX")].separator) == {"E"}
    # (EX) hangs below (EBD): its request path runs through that clique
    assert by_members[frozenset("EX")].parent == by_members[frozenset("EBD")].id
    assert tree.subtree_variables(by_members[frozenset("EBD")].id) == frozenset("EBDX")


def test_chain_tree_families_and_assignments():
    from bnquery import assign_cpts

    vs = {n: bnquery.Variable(n, ("0", "1")) for n in "abc"}
    bn = bnquery.BayesianNetwork(
        [vs["a"], vs["b"], vs["c"]],
        {"a": (), "b": ("a",), "c": ("b",)},
        {
            "a": bnquery.Factor([vs["a"]], [0.5, 0.5]),
            "b": bnquery.Factor([vs["a"], vs["b"]], [0.3, 0.7, 0.6, 0.4]),
            "c": bnquery.Factor([vs["b"], vs["c"]], [0.2, 0.8, 0.9, 0.1]),
        },
    )
    tree = compile_network(bn)
    assignment = assign_cpts(bn, tree)
    ab = next(c.id for c in tree.cliques if c.member_set == frozenset("ab"))
    bc = next(c.id for c in tree.cliques if c.member_set == frozenset("bc"))
    assert assignment == {"a": ab, "b": ab, "c": bc}


# -- invariants over the random corpus -------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_compile_invariants_random(seed):
    rng = np.random.default_rng(1000 + seed)
    bn = random_network(rng, int(rng.integers(3, 11)))
    tree = compile_network(bn)

    covered = set()
    for c in tree.cliques:
        covered |= c.member_set
        assert set(c.separator) | set(c.residual) == c.member_set
        assert not set(c.separator) & set(c.residual)
    assert covered == set(bn.names)

    for name in bn.names:
        family = set(bn.family(name))
        assert any(family <= c.member_set for c in tree.cliques)

    earlier = set()
    for c in tree.cliques:
        assert set(c.separator) == (c.member_set & earlier)
        if c.parent is not None:
            assert set(c.separator) <= tree.cliques[c.parent].member_set
            assert c.parent < c.id
        else:
            assert c.separator == ()
        earlier |= c.member_set

    for root in tree.roots:
        comp = tree.subtree_variables(root)
        for c in tree.cliques:
            if tree.root_of[c.id] == root:
                assert c.member_set <= comp

    # variables partition into residuals
    owners = [n for c in tree.cliques for n in c.residual]
    assert sorted(owners) == sorted(bn.names)

    # determinism
    tree2 = compile_network(bn)
    assert [c.members for c in tree2.cliques] == [c.members for c in tree.cliques]
    assert [c.parent for c in tree2.cliques] == [c.parent for c in tree.cliques]
    assert tree2.fill_edges == tree.fill_edges

    # re-triangulating the filled graph along the same order adds nothing
    moral = moralize(bn)
    filled, _ = triangulate(moral, tree.elimination_order)
    _, fill2 = triangulate(filled, tree.elimination_order)
    assert fill2 == ()


def test_running_intersection_violation_is_reported():
    from bnquery import order_cliques

    # vertex numbering b,c,d,a ranks the sets {c,d}, {a,b}, {a,c}; the last
    # one's separator {a,c} then spans two earlier sets, which no single
    # tree parent can contain
    g = UndirectedGraph("bcda")
    bogus = [frozenset("ab"), frozenset("cd"), frozenset("ac")]
    priority = {n: i for i, n in enumerate("bcda")}
    with pytest.raises(CompilationError, match="running intersection"):
        order_cliques(bogus, g, priority)


def test_disconnected_network_compiles_to_forest():
    vs = {n: bnquery.Variable(n, ("0", "1")) for n in "abcd"}
    bn = bnquery.BayesianNetwork(
        [vs["a"], vs["b"], vs["c"], vs["d"]],
        {"a": (), "b": ("a",), "c": (), "d": ("c",)},
        {
            "a": bnquery.Factor([vs["a"]], [0.5, 0.5]),
            "b": bnquery.Factor([vs["a"], vs["b"]], [0.3, 0.7, 0.6, 0.4]),
            "c": bnquery.Factor([vs["c"]], [0.2, 0.8]),
            "d": bnquery.Factor([vs["c"], vs["d"]], [0.1, 0.9, 0.5, 0.5]),
        },
    )
    tree = compile_network(bn)
    assert len(tree.roots) == 2
    components = {tree.subtree_variables(r) for r in tree.roots}
    assert components == {frozenset("ab"), frozenset("cd")}


def forest_parents():
    """Three components: two windowed DAGs and a chain."""
    parts = [
        windowed_parents(40, window=4, seed=1),
        chain_parents(30),
        windowed_parents(25, window=3, seed=2),
    ]
    parents = {}
    for k, part in enumerate(parts):
        for name, ps in part.items():
            parents[f"{name}_{k}"] = tuple(f"{p}_{k}" for p in ps)
    return parents


INTERVAL_NETWORKS = {
    **{
        f"random{s}": lambda s=s: random_network(np.random.default_rng(2000 + s), 10)
        for s in range(12)
    },
    "forest": lambda: structure_network(forest_parents()),
    "star": lambda: structure_network(star_parents(30)),
}


@pytest.mark.parametrize("label", sorted(INTERVAL_NETWORKS))
def test_preorder_intervals_match_parent_links(label):
    # the component roots, upward paths and subtree variables must say what
    # the parent links say, and the routing rule (a variable outside a
    # clique lies below its child iff its owner does) must hold exactly
    tree = compile_network(INTERVAL_NETWORKS[label]())
    below: dict[int, set[int]] = {c.id: {c.id} for c in tree.cliques}
    walked: dict[int, list[int]] = {}
    for c in tree.cliques:
        path = [c.id]
        while tree.cliques[path[-1]].parent is not None:
            path.append(tree.cliques[path[-1]].parent)
            below[path[-1]].add(c.id)
        walked[c.id] = path
    variables = {
        cid: {n for d in ids for n in tree.cliques[d].members} for cid, ids in below.items()
    }
    for c in tree.cliques:
        assert list(tree.children[c.id]) == [d.id for d in tree.cliques if d.parent == c.id]
        assert list(tree.path_up(c.id)) == walked[c.id]
        assert tree.root_of[c.id] == walked[c.id][-1]
        assert tree.subtree_variables(c.id) == variables[c.id]
        for ch in tree.children[c.id]:
            for name in tree.owner:
                if name in c.member_set:
                    continue
                at = tree.owner[name]
                assert (name in variables[ch]) == (at in below[ch])


# -- equivalence with the quadratic reference algorithms --------------------------
#
# Names are permuted before insertion, so declaration order, name order and
# the numeric suffix all disagree and every tie-break is exercised.


@st.composite
def vertex_names(draw, min_size=1, max_size=12):
    n = draw(st.integers(min_size, max_size))
    return draw(st.permutations([f"v{i}" for i in range(n)]))


@st.composite
def random_graphs(draw):
    names = draw(vertex_names())
    pairs = list(combinations(names, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_of(names, edges)


@st.composite
def star_graphs(draw):
    names = draw(vertex_names(max_size=16))
    hub = draw(st.sampled_from(names))
    return graph_of(names, [(hub, leaf) for leaf in names if leaf != hub])


@st.composite
def complete_graphs(draw):
    names = draw(vertex_names(max_size=8))
    return graph_of(names, combinations(names, 2))


@st.composite
def disconnected_graphs(draw):
    names = draw(vertex_names(min_size=2))
    part = {v: draw(st.integers(0, 2)) for v in names}
    pairs = [(a, b) for a, b in combinations(names, 2) if part[a] == part[b]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_of(names, edges)


@st.composite
def tied_graphs(draw):
    """Disjoint equal cycles or a grid: many vertices share every fill cost."""
    if draw(st.booleans()):
        length, copies = draw(st.integers(4, 6)), draw(st.integers(1, 3))
        cells = [(k, i) for k in range(copies) for i in range(length)]
        edges = [((k, i), (k, (i + 1) % length)) for k, i in cells]
    else:
        rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        edges = [((r, c), (r, c + 1)) for r, c in cells if c + 1 < cols]
        edges += [((r, c), (r + 1, c)) for r, c in cells if r + 1 < rows]
    name = {cell: f"t{cell[0]}_{cell[1]}" for cell in cells}
    names = draw(st.permutations(list(name.values())))
    return graph_of(names, [(name[a], name[b]) for a, b in edges])


any_graph = st.one_of(
    random_graphs(),
    star_graphs(),
    complete_graphs(),
    disconnected_graphs(),
    tied_graphs(),
)


@settings(max_examples=300, deadline=None)
@given(any_graph)
def test_min_fill_order_matches_reference(g):
    assert min_fill_order(g) == ref_min_fill_order(g)


@settings(max_examples=300, deadline=None)
@given(any_graph, st.data())
def test_find_cliques_matches_reference(g, data):
    orders = st.one_of(st.just(min_fill_order(g)), st.permutations(g.vertices))
    order = data.draw(orders, label="order")
    filled, _ = triangulate(g, order)
    assert find_cliques(filled, order) == ref_find_cliques(filled, order)


@settings(max_examples=300, deadline=None)
@given(any_graph, st.data())
def test_mcs_numbering_matches_reference(g, data):
    # tied priorities fall back to declaration order in both
    values = data.draw(
        st.lists(st.integers(0, 3), min_size=len(g), max_size=len(g)), label="priority"
    )
    priority = dict(zip(g.vertices, values))
    filled, _ = triangulate(g, min_fill_order(g))
    assert mcs_numbering(g, priority) == ref_mcs_numbering(g, priority)
    assert mcs_numbering(filled, priority) == ref_mcs_numbering(filled, priority)


# -- large-graph goldens and scaling -----------------------------------------------

LARGE_NETWORKS = {
    "windowed1000": lambda: windowed_parents(1000),
    "star1000": lambda: star_parents(1000),
    "chain3000": lambda: chain_parents(3000),
}

#: Digests of the min-fill order, the fill edges, the find_cliques list and
#: the compiled tree, recorded with the quadratic algorithms that
#: tests/reference.py keeps.
LARGE_GOLDENS = {
    "windowed1000": (
        "6b2438de6eba9e5b", "8ed56458d18d9a8c", "7c624534cb9ee028", "45c616f46164024d"
    ),
    "star1000": (
        "fdbfd05978f1a05b", "e3b0c44298fc1c14", "1ec7e103d46d3d02", "36cc1602be5734fb"
    ),
    "chain3000": (
        "8326d0761e93928f", "e3b0c44298fc1c14", "1ee9c9a5af238ccf", "e62447554f0e0e72"
    ),
}


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("label", sorted(LARGE_NETWORKS))
def test_large_graph_compile_goldens(label):
    bn = structure_network(LARGE_NETWORKS[label]())
    moral = moralize(bn)
    order = min_fill_order(moral)
    filled, fill = triangulate(moral, order)
    cliques = find_cliques(filled, order)
    tree = compile_network(bn)
    assert (
        digest(order),
        digest(f"{a},{b}" for a, b in fill),
        digest(",".join(sorted(c)) for c in cliques),
        digest(f"{c.members}|{c.separator}|{c.parent}" for c in tree.cliques),
    ) == LARGE_GOLDENS[label]


def test_star_compile_time_is_near_linear():
    bn = structure_network(star_parents(1000))
    start = time.perf_counter()
    compile_network(bn)
    assert time.perf_counter() - start < 3.0  # the quadratic min-fill took ~20 s
