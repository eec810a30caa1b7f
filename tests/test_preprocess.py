"""Precomputed clique tables checked against the enumeration oracle."""

import numpy as np
import pytest

import bnquery
from bnquery import (
    QueryEngine,
    assign_cpts,
    compile_network,
    compute_potentials,
    dump_network,
    enumerate_joint,
    max_deviation,
    multiply,
    normalize_conditional,
    preprocess,
    sum_out,
    unit_factor,
)
from bnquery.preprocess import distribute_marginals
from corpus import random_forest, random_network, structure_network, windowed_parents
from reference import ref_collect, ref_compute_potentials, ref_sliced


def build(seed, n=5):
    rng = np.random.default_rng(seed)
    bn = random_network(rng, n)
    tree = compile_network(bn)
    return bn, tree


def clique_marginals(tree, prep):
    conditionals = {cid: st.conditional for cid, st in prep.items()}
    return distribute_marginals(tree, conditionals)


# -- CPT assignment ---------------------------------------------------------


def test_assignment_is_partition(asia_bn):
    tree = compile_network(asia_bn, bnquery.ASIA_GOLDEN_ORDER)
    assignment = assign_cpts(asia_bn, tree)
    assert sorted(assignment) == sorted(asia_bn.names)
    by_members = {c.member_set: c.id for c in tree.cliques}
    assert assignment["X"] == by_members[frozenset("EX")]
    assert assignment["D"] == by_members[frozenset("EBD")]


def test_single_clique_gets_everything():
    vs = {n: bnquery.Variable(n, ("0", "1")) for n in "ab"}
    bn = bnquery.BayesianNetwork(
        [vs["a"], vs["b"]],
        {"a": (), "b": ("a",)},
        {
            "a": bnquery.Factor([vs["a"]], [0.5, 0.5]),
            "b": bnquery.Factor([vs["a"], vs["b"]], [0.3, 0.7, 0.6, 0.4]),
        },
    )
    tree = compile_network(bn)
    assert assign_cpts(bn, tree) == {"a": 0, "b": 0}


# -- potentials ---------------------------------------------------------------


def test_unassigned_clique_gets_all_ones():
    # Diamond a -> b, a -> c, (b, c) -> d: some clique carries no CPT
    vs = {n: bnquery.Variable(n, ("0", "1")) for n in "abcd"}
    bn = bnquery.BayesianNetwork(
        [vs[n] for n in "abcd"],
        {"a": (), "b": ("a",), "c": ("a",), "d": ("b", "c")},
        {
            "a": bnquery.Factor([vs["a"]], [0.5, 0.5]),
            "b": bnquery.Factor([vs["a"], vs["b"]], [0.3, 0.7, 0.6, 0.4]),
            "c": bnquery.Factor([vs["a"], vs["c"]], [0.2, 0.8, 0.9, 0.1]),
            "d": bnquery.Factor(
                [vs["b"], vs["c"], vs["d"]], np.full((2, 2, 2), 0.5)
            ),
        },
    )
    tree = compile_network(bn)
    assignment = assign_cpts(bn, tree)
    potentials = compute_potentials(bn, tree, assignment)
    empties = [
        cid
        for cid in potentials
        if not [n for n, c in assignment.items() if c == cid]
    ]
    for cid in empties:
        assert np.all(potentials[cid].values == 1.0)


def test_asia_ex_potential_is_its_cpt(asia_bn):
    tree = compile_network(asia_bn, bnquery.ASIA_GOLDEN_ORDER)
    assignment = assign_cpts(asia_bn, tree)
    potentials = compute_potentials(asia_bn, tree, assignment)
    ex = next(c.id for c in tree.cliques if c.member_set == frozenset("EX"))
    expected = asia_bn.cpt("X")
    got = bnquery.reorder_scope(potentials[ex], expected.names)
    assert np.array_equal(got.values, expected.values)


def test_potential_product_equals_joint():
    bn, tree = build(42)
    assignment = assign_cpts(bn, tree)
    potentials = compute_potentials(bn, tree, assignment)
    product = unit_factor()
    for cid in sorted(potentials):
        product = multiply(product, potentials[cid])
    joint = enumerate_joint(bn)
    assert max_deviation(
        sum_out(product, set(product.names) - set(joint.names)), joint
    ) <= 1e-12


# -- collect pass ----------------------------------------------------------------


def test_single_clique_conditional_is_joint():
    vs = {n: bnquery.Variable(n, ("0", "1")) for n in "ab"}
    bn = bnquery.BayesianNetwork(
        [vs["a"], vs["b"]],
        {"a": (), "b": ("a",)},
        {
            "a": bnquery.Factor([vs["a"]], [0.5, 0.5]),
            "b": bnquery.Factor([vs["a"], vs["b"]], [0.3, 0.7, 0.6, 0.4]),
        },
    )
    tree = compile_network(bn)
    prep = preprocess(bn, tree)
    joint = enumerate_joint(bn)
    assert max_deviation(prep[0].conditional, joint) <= 1e-12
    assert prep[0].message.total() == pytest.approx(1.0, abs=1e-12)


def test_leaf_cpt_clique_conditional_unchanged(asia_bn):
    tree = compile_network(asia_bn, bnquery.ASIA_GOLDEN_ORDER)
    prep = preprocess(asia_bn, tree)
    ex = next(c.id for c in tree.cliques if c.member_set == frozenset("EX"))
    got = bnquery.reorder_scope(prep[ex].conditional, ("E", "X"))
    assert np.allclose(got.values, asia_bn.cpt("X").values, atol=1e-15)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_conditionals_match_oracle(seed):
    bn, tree = build(seed)
    prep = preprocess(bn, tree)
    joint = enumerate_joint(bn)
    for c in tree.cliques:
        clique_joint = sum_out(joint, set(bn.names) - c.member_set)
        expected = normalize_conditional(clique_joint, c.residual)
        assert max_deviation(prep[c.id].conditional, expected) <= 1e-9


# -- distribute pass ----------------------------------------------------------------


def test_root_marginal_is_root_family_product(asia_bn):
    tree = compile_network(asia_bn, bnquery.ASIA_GOLDEN_ORDER)
    prep = preprocess(asia_bn, tree)
    expected = multiply(asia_bn.cpt("A"), asia_bn.cpt("T"))
    assert max_deviation(clique_marginals(tree, prep)[0], expected) <= 1e-12


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_marginals_match_oracle_and_agree_across_cliques(seed):
    bn, tree = build(seed, n=6)
    prep = preprocess(bn, tree)
    marginals = clique_marginals(tree, prep)
    joint = enumerate_joint(bn)
    for c in tree.cliques:
        expected = sum_out(joint, set(bn.names) - c.member_set)
        assert max_deviation(marginals[c.id], expected) <= 1e-9
    for name in bn.names:
        per_clique = []
        for cid in tree.containing[name]:
            m = marginals[cid]
            per_clique.append(
                sum_out(m, set(m.names) - {name}).values
            )
        for other in per_clique[1:]:
            assert np.max(np.abs(per_clique[0] - other)) <= 1e-9


def test_separator_consistency():
    bn, tree = build(7, n=7)
    prep = preprocess(bn, tree)
    marginals = clique_marginals(tree, prep)
    for c in tree.cliques:
        if c.parent is None:
            continue
        child = marginals[c.id]
        parent = marginals[c.parent]
        sep = set(c.separator)
        down_child = sum_out(child, set(child.names) - sep)
        down_parent = sum_out(parent, set(parent.names) - sep)
        assert max_deviation(down_child, down_parent) <= 1e-9


# -- node marginals --------------------------------------------------------------


def test_deterministic_network_gives_point_masses():
    vs = {n: bnquery.Variable(n, ("0", "1")) for n in "ab"}
    bn = bnquery.BayesianNetwork(
        [vs["a"], vs["b"]],
        {"a": (), "b": ("a",)},
        {
            "a": bnquery.Factor([vs["a"]], [1.0, 0.0]),
            "b": bnquery.Factor([vs["a"], vs["b"]], [0.0, 1.0, 1.0, 0.0]),
        },
    )
    engine = QueryEngine(bn)
    assert list(engine.query_conditional(["a"]).flat) == [1.0, 0.0]
    assert list(engine.query_conditional(["b"]).flat) == [0.0, 1.0]


def test_uniform_independent_bits():
    vs = {n: bnquery.Variable(n, ("0", "1")) for n in "ab"}
    bn = bnquery.BayesianNetwork(
        [vs["a"], vs["b"]],
        {"a": (), "b": ()},
        {
            "a": bnquery.Factor([vs["a"]], [0.5, 0.5]),
            "b": bnquery.Factor([vs["b"]], [0.5, 0.5]),
        },
    )
    engine = QueryEngine(bn)
    for name in "ab":
        assert list(engine.query_conditional([name]).flat) == [0.5, 0.5]


def test_node_marginals_match_oracle_eight_vars():
    bn, _tree = build(99, n=8)
    engine = QueryEngine(bn)
    joint = enumerate_joint(bn)
    for name in bn.names:
        got = engine.query_conditional([name])
        expected = sum_out(joint, set(bn.names) - {name})
        assert max_deviation(got, expected) <= 1e-9
        assert got.total() == pytest.approx(1.0, abs=1e-9)


# -- global invariants ---------------------------------------------------------------


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_joint_factorization(seed):
    bn, tree = build(seed, n=6)
    prep = preprocess(bn, tree)
    product = unit_factor()
    for c in tree.cliques:
        product = multiply(product, prep[c.id].conditional)
    mass = prep[0].message.total()
    product = multiply(product, bnquery.Factor((), [mass]))
    joint = enumerate_joint(bn)
    assert max_deviation(product, joint) <= 1e-9


def test_preprocess_is_bit_deterministic():
    bn, tree = build(21, n=7)
    tree2 = compile_network(bn)
    p1 = preprocess(bn, tree)
    p2 = preprocess(bn, tree2)
    m1 = clique_marginals(tree, p1)
    m2 = clique_marginals(tree2, p2)
    for cid in p1:
        assert np.array_equal(
            p1[cid].conditional.values, p2[cid].conditional.values
        )
        assert np.array_equal(
            m1[cid].values, m2[cid].values
        )
    assert p1[0].message.total() == p2[0].message.total()


# -- against the ones-table, multiply-per-step reference ---------------------------


def _windowed_dag_120():
    shape = structure_network(windowed_parents(120, seed=3))
    rng = np.random.default_rng(120)
    cpts = {}
    for name in shape.names:
        scope = [shape.var(p) for p in shape.parents[name]] + [shape.var(name)]
        p = rng.uniform(0.1, 0.9, size=[2] * (len(scope) - 1))
        cpts[name] = bnquery.Factor(scope, np.stack([p, 1 - p], axis=-1))
    return bnquery.BayesianNetwork(shape.variables, shape.parents, cpts)


def _assert_records_equal(tree, records, potentials, reference):
    for c in tree.cliques:
        conditional, message = reference[c.id]
        got = records[c.id]
        assert got.potential.names == potentials[c.id].names
        assert np.array_equal(got.potential.values, potentials[c.id].values)
        assert got.conditional.names == conditional.names
        assert np.array_equal(got.conditional.values, conditional.values)
        assert got.message.names == message.names
        assert np.array_equal(got.message.values, message.values)


@pytest.mark.parametrize("seed", range(12))
def test_preprocess_matches_the_reference_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    if seed == 11:
        bn = _windowed_dag_120()
    elif seed % 4 == 0:
        bn = random_forest(rng, 7)
    else:
        bn = random_network(rng, 12)
    tree = compile_network(bn)
    potentials = ref_compute_potentials(bn, tree, assign_cpts(bn, tree))
    _assert_records_equal(
        tree, preprocess(bn, tree), potentials, ref_collect(tree, potentials)
    )


@pytest.mark.parametrize("seed", range(6))
def test_live_records_match_the_reference_after_writes(seed):
    rng = np.random.default_rng(100 + seed)
    bn = _windowed_dag_120() if seed == 0 else random_network(rng, 12)
    engine = bnquery.QueryEngine(bn)
    tree = engine.tree
    pristine = ref_compute_potentials(bn, tree, assign_cpts(bn, tree))
    names = list(bn.names)
    for step in range(24):
        observed = engine.evidence
        if observed and rng.random() < 0.4:
            engine.retract(sorted(observed)[int(rng.integers(len(observed)))])
        else:
            name = names[int(rng.integers(len(names)))]
            if name not in observed:
                engine.observe(name, int(rng.integers(2)))
        if step % 3 == 2:
            engine.evidence_probability()  # applies the pending writes
            live = ref_sliced(tree, pristine, engine.evidence)
            _assert_records_equal(tree, engine._live, live, ref_collect(tree, live))


def test_building_an_engine_from_text_validates_no_factor(asia_bn, monkeypatch):
    texts = [
        dump_network(asia_bn),
        dump_network(random_forest(np.random.default_rng(3), 10)),
        dump_network(_windowed_dag_120()),
    ]
    calls = []
    init = bnquery.Factor.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bnquery.Factor, "__init__", counted)
    for text in texts:
        engine = bnquery.QueryEngine(bnquery.parse_network(text))
        assert engine.prep
    assert calls == []


def test_a_cpt_laid_out_in_another_order_gives_a_c_ordered_potential():
    # a potential's reductions assume C order; a clique whose one CPT is
    # held in another layout copies it rather than sharing it
    a = bnquery.Variable("a", ("0", "1"))
    kids = [bnquery.Variable(n, tuple(str(i) for i in range(9))) for n in "bc"]
    rng = np.random.default_rng(9)
    cpts = {"a": bnquery.Factor([a], [0.3, 0.7])}
    for v in kids:
        rows = rng.uniform(0.1, 1.0, size=(9, 2))
        cpts[v.name] = bnquery.Factor([a, v], (rows / rows.sum(axis=0)).T)
    bn = bnquery.BayesianNetwork([a, *kids], {"b": ("a",), "c": ("a",)}, cpts)
    tree = compile_network(bn)
    assignment = assign_cpts(bn, tree)
    potentials = compute_potentials(bn, tree, assignment)
    reference = ref_compute_potentials(bn, tree, assignment)
    alone = [c for c in tree.cliques if list(assignment.values()).count(c.id) == 1]
    assert alone and not bn.cpt("b").values.flags.c_contiguous
    for cid, potential in potentials.items():
        assert potential.values.flags.c_contiguous
        assert potential.names == reference[cid].names
        assert np.array_equal(potential.values, reference[cid].values)
