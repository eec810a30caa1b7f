"""Query decomposition, caching, evidence handling, counters."""

import itertools
import sys

import numpy as np
import pytest

import bnquery
from bnquery import (
    EvidenceError,
    MissingVariableError,
    QueryEngine,
    QueryError,
    enumerate_joint,
    max_deviation,
    multiply,
    normalize_conditional,
    oracle_query,
    substitute,
    sum_out,
    unit_factor,
)
from corpus import (
    chain_network,
    random_forest,
    random_network,
    star_parents,
    structure_network,
    windowed_parents,
)
from reference import ref_trace


def assert_settled(engine):
    """Nothing written is left to apply: the next read does no counted
    work, and the evidence and its mass are a fresh engine's."""
    before = engine.op_counters()
    mass = engine.evidence_probability()
    assert engine.op_counters() == before
    fresh = QueryEngine(engine.bn, elimination_order=engine.tree.elimination_order)
    for name, state in engine.evidence.items():
        fresh.observe(name, state)
    assert fresh.evidence == engine.evidence
    assert fresh.evidence_probability() == mass


def component_of(tree, cid):
    """A clique's component, named by its first clique: the first clique
    on the way up with an empty separator."""
    return next(c for c in tree.path_up(cid) if not tree.cliques[c].separator)


def engine_for(seed, n=8, **kwargs):
    rng = np.random.default_rng(seed)
    bn = random_network(rng, n)
    return bn, QueryEngine(bn, **kwargs)


# -- routing and the worked trace ------------------------------------------------


def test_root_subset_answered_directly(asia_engine):
    trace = []
    ans = asia_engine.query_joint(["A", "T"], trace=trace)
    assert len(trace) == 1
    assert trace[0].requests == ()
    assert trace[0].resolution == "stored"
    assert ans.total() == pytest.approx(1.0, abs=1e-12)


GOLDEN_TRACE = [
    # (clique members, received targets, separator, [(child members, targets)])
    (frozenset("AT"), {"A", "X", "S"}, set(), [(frozenset("TLE"), {"X", "S"})]),
    (frozenset("TLE"), {"X", "S"}, {"T"}, [(frozenset("LEB"), {"X", "S"})]),
    (
        frozenset("LEB"),
        {"X", "S"},
        {"L", "E"},
        [(frozenset("BLS"), {"S"}), (frozenset("EBD"), {"X"})],
    ),
    (frozenset("BLS"), {"S"}, {"B", "L"}, []),
    (frozenset("EBD"), {"X"}, {"E", "B"}, [(frozenset("EX"), {"X"})]),
    (frozenset("EX"), {"X"}, {"E"}, []),
]


def structured(engine, trace):
    out = []
    for e in trace:
        members = engine.tree.cliques[e.clique_id].member_set
        reqs = [
            (engine.tree.cliques[cid].member_set, set(tg))
            for cid, tg, _sep in e.requests
        ]
        out.append((members, set(e.targets), set(e.separator), reqs))
    return out


def test_golden_recursion_trace(asia_engine):
    trace = []
    asia_engine.query_joint(["A", "X", "S"], trace=trace)
    got = structured(asia_engine, trace)
    want = [
        (m, t, s, [(cm, ct) for cm, ct in reqs]) for m, t, s, reqs in GOLDEN_TRACE
    ]
    assert got == want
    # separator sets carried by the requests match the tree's edges
    for e in trace:
        for cid, _tg, sep in e.requests:
            assert set(sep) == set(asia_engine.tree.cliques[cid].separator)


def test_leaf_requests_resolve_from_stored_conditionals(asia_engine):
    trace = []
    asia_engine.query_joint(["A", "X", "S"], trace=trace)
    kinds = {
        asia_engine.tree.cliques[e.clique_id].member_set: e.resolution for e in trace
    }
    assert kinds[frozenset("BLS")] == "stored"
    assert kinds[frozenset("EX")] == "stored"
    assert kinds[frozenset("EBD")] == "computed"


def test_traces_match_a_recursive_descent():
    # cold and warm, on networks and two-component forests: each query's
    # events are a recursive descent's, given the cache keys before it
    mid_tree_hits = cross_component_hits = out_of_rank = 0
    for seed in range(12):
        rng = np.random.default_rng(500 + seed)
        bn = random_forest(rng, 8) if seed % 2 else random_network(rng, 12)
        for cache_enabled in (False, True):
            engine = QueryEngine(bn, cache_enabled=cache_enabled)
            tree, asked = engine.tree, set()
            for _ in range(40):
                k = int(rng.integers(1, 4))
                targets = tuple(str(t) for t in rng.choice(bn.names, k, replace=False))
                if frozenset(targets) in asked:
                    continue  # clique 0's whole-query answer answers a repeat
                asked.add(frozenset(targets))
                cached = set(engine._cache)
                trace = []
                engine.query_joint(targets, trace=trace)
                got = [
                    (e.clique_id, e.targets, e.separator, e.requests, e.resolution)
                    for e in trace
                ]
                assert got == ref_trace(tree, cached, targets)
                hits = [e.clique_id for e in trace if e.resolution == "cache"]
                components = {component_of(tree, tree.owner[t]) for t in targets}
                visited = [e.clique_id for e in trace]
                out_of_rank += visited != sorted(visited)
                mid_tree_hits += any(tree.cliques[c].parent is not None for c in hits)
                cross_component_hits += bool(hits) and len(components) > 1
    # some descents visit cliques out of rank order
    assert mid_tree_hits and cross_component_hits and out_of_rank


def _compare_on_possible_contexts(engine, asia_joint, members, targets, given):
    """Cached per-clique answers must equal the oracle's conditional wherever
    the conditioning context has positive mass (zero-mass contexts may hold
    any normalized filler; they get zero weight upstream)."""
    cid = next(c.id for c in engine.tree.cliques if c.member_set == members)
    entry = engine._cache[(cid, frozenset(targets))]
    want = oracle_query(asia_joint, sorted(targets), sorted(given))
    got = bnquery.reorder_scope(entry, want.names)
    context = bnquery.sum_out(asia_joint, set(asia_joint.names) - set(given))
    context = bnquery.reorder_scope(
        context, [n for n in want.names if n in set(given)]
    )
    mask = context.values > 0
    axes = tuple(i for i, n in enumerate(want.names) if n not in set(given))
    mask = np.expand_dims(mask, axes)
    diff = np.abs(got.values - want.values) * mask
    assert float(diff.max()) <= 1e-12


def test_intermediate_answers_match_their_equations(asia_bn, asia_engine, asia_joint):
    asia_engine.query_joint(["A", "X", "S"])
    # at (EBD): sum over D of P(X|E) P(D|BE), a conditional over (X | E, B)
    _compare_on_possible_contexts(
        asia_engine, asia_joint, frozenset("EBD"), {"X"}, {"E", "B"}
    )
    # at (LEB): sum over B of P(S|BL) P(X|EB) P(B|LE)
    _compare_on_possible_contexts(
        asia_engine, asia_joint, frozenset("LEB"), {"X", "S"}, {"L", "E"}
    )


# -- query_joint / query_conditional ----------------------------------------------


def test_joint_matches_oracle_random_networks():
    for seed in range(8):
        bn, engine = engine_for(seed, n=int(3 + seed))
        joint = enumerate_joint(bn)
        rng = np.random.default_rng(seed + 500)
        names = list(bn.names)
        for _ in range(4):
            k = int(rng.integers(1, min(4, len(names)) + 1))
            targets = list(rng.choice(names, size=k, replace=False))
            got = normalize_conditional(engine.query_joint(targets), targets)
            want = oracle_query(joint, targets)
            assert max_deviation(got, want) <= 1e-9


def test_conditional_with_empty_given_is_normalized_joint(asia_engine):
    ans = asia_engine.query_conditional(["X", "D"])
    assert ans.total() == pytest.approx(1.0, abs=1e-9)


def test_conditional_recovers_cpt(asia_bn, asia_engine):
    # D's family {B, E, D} shares the (EBD) clique
    ans = asia_engine.query_conditional(["D"], ["B", "E"])
    want = asia_bn.cpt("D")  # scope (B, E, D)
    assert max_deviation(ans, want) <= 1e-9


def test_conditional_matches_oracle_random():
    for seed in (30, 31, 32):
        bn, engine = engine_for(seed, n=9)
        joint = enumerate_joint(bn)
        rng = np.random.default_rng(seed)
        from corpus import random_query

        for _ in range(5):
            targets, given, _ = random_query(rng, bn)
            got = engine.query_conditional(targets, given)
            want = oracle_query(joint, targets, given)
            assert max_deviation(got, want) <= 1e-9


def test_query_errors(asia_engine):
    with pytest.raises(QueryError):
        asia_engine.query_joint([])
    with pytest.raises(MissingVariableError):
        asia_engine.query_joint(["nope"])
    with pytest.raises(QueryError):
        asia_engine.query_joint(["A", "A"])
    asia_engine.observe("E", 0)
    with pytest.raises(QueryError, match="observed"):
        asia_engine.query_joint(["E"])
    with pytest.raises(QueryError, match="observed"):
        asia_engine.query_conditional(["A"], ["E"])
    with pytest.raises(QueryError, match="overlap"):
        asia_engine.query_conditional(["A"], ["A"])


def two_chain_forest(declared="abcd"):
    """a -> b and c -> d: two components, ranked in declaration order."""
    vs = {n: bnquery.Variable(n, ("0", "1")) for n in "abcd"}
    return bnquery.BayesianNetwork(
        [vs[n] for n in declared],
        {"a": (), "b": ("a",), "c": (), "d": ("c",)},
        {
            "a": bnquery.Factor([vs["a"]], [0.3, 0.7]),
            "b": bnquery.Factor([vs["a"], vs["b"]], [0.2, 0.8, 0.9, 0.1]),
            "c": bnquery.Factor([vs["c"]], [0.6, 0.4]),
            "d": bnquery.Factor([vs["c"], vs["d"]], [0.5, 0.5, 0.25, 0.75]),
        },
    )


def test_multi_component_query_multiplies_parts():
    bn = two_chain_forest()
    engine = QueryEngine(bn)
    joint = enumerate_joint(bn)
    got = engine.query_conditional(["b", "d"])
    want = oracle_query(joint, ["b", "d"])
    assert max_deviation(got, want) <= 1e-12


def test_evidence_only_component_is_weighed_but_not_walked():
    # either component may hold clique 0; the walk enters the evidence-only
    # one only on the way up to clique 0
    for declared, passes_through in (("abcd", False), ("cdab", True)):
        bn = two_chain_forest(declared)
        engine = QueryEngine(bn)
        tree = engine.tree
        engine.observe("d", 1)
        evidence_side = component_of(tree, tree.owner["d"])
        trace = []
        got = engine.query_joint(["b"], trace=trace)
        sliced = substitute(enumerate_joint(bn), "d", 1)
        want = sum_out(sliced, ["a", "c"])
        assert max_deviation(got, want) <= 1e-12
        walked = {e.clique_id for e in trace}
        entered = {cid for cid in walked if component_of(tree, cid) == evidence_side}
        assert entered <= set(tree.path_up(tree.owner["b"]))
        assert bool(entered) == passes_through


def test_a_finding_in_one_of_many_components_costs_log_components():
    # 1,024 components a_i -> b_i, one 4-cell clique each: a finding
    # refreshes the cliques on its path up to clique 0, at most
    # log2(1024) + 1 of them, each multiplying in at most two messages, and
    # a read makes one 8-cell product per clique on the same path
    k = 1024
    rng = np.random.default_rng(1024)
    variables, parents, cpts = [], {}, {}
    for i in range(k):
        a = bnquery.Variable(f"a{i}", ("0", "1"))
        b = bnquery.Variable(f"b{i}", ("0", "1"))
        p, q = rng.uniform(0.1, 0.9, size=2), rng.uniform(0.1, 0.9)
        variables += [a, b]
        parents[a.name], parents[b.name] = (), (a.name,)
        cpts[a.name] = bnquery.Factor([a], [q, 1 - q])
        cpts[b.name] = bnquery.Factor([a, b], np.stack([p, 1 - p], axis=1))
    bn = bnquery.BayesianNetwork(variables, parents, cpts)
    engine = QueryEngine(bn)
    bound = 8 * (np.log2(k) + 1)  # hanging all from clique 0 costs 2,046
    for i in (0, 1, 2, 500, k - 1):
        before = engine.op_counters().multiplications
        engine.observe(f"b{i}", 1)
        mass = engine.evidence_probability()
        assert engine.op_counters().multiplications - before <= bound
        before = engine.op_counters().multiplications
        got = engine.query_conditional([f"a{i}"])
        assert engine.op_counters().multiplications - before <= bound
        prior, likelihood = bn.cpt(f"a{i}").values, bn.cpt(f"b{i}").values[:, 1]
        want = prior * likelihood
        assert np.allclose(got.values, want / want.sum(), atol=1e-12, rtol=0)
        assert mass == pytest.approx(want.sum(), abs=1e-12)
        engine.retract(f"b{i}")


def test_impossible_evidence_in_an_evidence_only_component_zeroes_every_answer():
    # c is surely 0; observing c = 1 leaves no mass, in either component order
    for declared in ("abcd", "cdab"):
        shape = two_chain_forest(declared)
        cpts = dict(shape.cpts)
        cpts["c"] = bnquery.Factor([shape.var("c")], [1.0, 0.0])
        engine = QueryEngine(bnquery.BayesianNetwork(shape.variables, shape.parents, cpts))
        engine.observe("c", 1)
        assert engine.evidence_probability() == 0
        answers = [
            engine.query_joint(["b"]),
            engine.query_joint(["a", "b"]),
            engine.query_joint(["d"]),
            engine.query_conditional(["b"]),
            engine.query_conditional(["a"], ["b"]),
            engine.query_conditional(["b"], ["d"]),
        ]
        assert all(not answer.values.any() for answer in answers)


def test_impossible_evidence_deep_in_the_component_heap_zeroes_every_answer():
    # eight components x_i -> y_i, ranked in declaration order; the eighth
    # hangs below the fourth, the second and the first
    variables, parents, cpts = [], {}, {}
    for i in range(8):
        x, y = bnquery.Variable(f"x{i}", ("0", "1")), bnquery.Variable(f"y{i}", ("0", "1"))
        variables += [x, y]
        parents[x.name], parents[y.name] = (), (x.name,)
        cpts[x.name] = bnquery.Factor([x], [1.0, 0.0] if i == 7 else [0.4, 0.6])
        cpts[y.name] = bnquery.Factor([x, y], [0.2, 0.8, 0.7, 0.3])
    engine = QueryEngine(bnquery.BayesianNetwork(variables, parents, cpts))
    tree = engine.tree
    firsts = [c for c in tree.path_up(tree.owner["x7"]) if not tree.cliques[c].separator]
    assert len(firsts) == 4
    engine.observe("x7", 1)
    assert engine.evidence_probability() == 0
    for targets in (["y0"], ["x3", "y5"], ["y7"]):
        assert not engine.query_joint(targets).values.any()
        assert not engine.query_conditional(targets).values.any()
    engine.retract("x7")
    assert engine.query_conditional(["y0"]).values.sum() == pytest.approx(1)


def stars_and_a_chain(stars, leaves, declared_first):
    """Naive-Bayes stars s0C -> s0L0.. plus a chain x -> y -> z, one component
    each; ``declared_first`` puts the chain ahead of the stars."""
    variables, parents, cpts = [], {}, {}

    def add(name, family, values):
        v = bnquery.Variable(name, ("0", "1"))
        variables.append(v)
        parents[name] = family
        cpts[name] = bnquery.Factor(
            [next(u for u in variables if u.name == p) for p in family] + [v], values
        )

    def chain():
        add("x", (), [0.3, 0.7])
        add("y", ("x",), [[0.2, 0.8], [0.9, 0.1]])
        add("z", ("y",), [[0.6, 0.4], [0.25, 0.75]])

    if declared_first:
        chain()
    for s in range(stars):
        add(f"s{s}C", (), [0.5, 0.5])
        for i in range(leaves):
            add(f"s{s}L{i}", (f"s{s}C",), [[0.9, 0.1], [0.8, 0.2]])
    if not declared_first:
        chain()
    return bnquery.BayesianNetwork(variables, parents, cpts)


@pytest.mark.parametrize("stars", [2, 4])
@pytest.mark.parametrize("declared_first", [False, True])
def test_a_small_mass_in_one_component_leaves_the_others_exact(stars, declared_first):
    # every leaf observed at its unlikely state: each star's mass is about
    # 1e-210, in float range, but any two multiplied are not; with four
    # stars, components also hang below hung components
    leaves = 300
    bn = stars_and_a_chain(stars, leaves, declared_first)
    engine = QueryEngine(bn)
    tree = engine.tree
    assert sum(1 for c in tree.cliques if not c.separator) == stars + 1
    for s in range(stars):
        for i in range(leaves):
            engine.observe(f"s{s}L{i}", 1)
    # naive Bayes in log space: log P(C) + leaves * log P(leaf = 1 | C)
    log_p = np.log([0.5, 0.5]) + leaves * np.log([0.1, 0.2])
    want = np.exp(log_p - log_p.max())
    want /= want.sum()
    for s in range(stars):
        got = engine.query_conditional([f"s{s}C"])
        assert np.allclose(got.values, want, atol=1e-12, rtol=0)
    # the chain holds no finding, so it reads its prior
    chain = bnquery.BayesianNetwork(
        [bn.var(n) for n in "xyz"], {n: bn.parents[n] for n in "xyz"},
        {n: bn.cpt(n) for n in "xyz"},
    )
    joint = enumerate_joint(chain)
    for targets, given in ((["y"], []), (["x", "z"], []), (["z"], ["x"])):
        got = engine.query_conditional(targets, given)
        assert max_deviation(got, oracle_query(joint, targets, given)) <= 1e-12
    # the mass is below float range but not impossible evidence
    assert 0 < engine.evidence_probability() < 1e-300


# -- evidence ----------------------------------------------------------------------


def test_unnormalized_query_after_evidence_matches_nested_expression(
    asia_bn, asia_engine, asia_joint
):
    # the recursion with E observed collapses to
    #   sum_T sum_L [ sum_B [ P(S|BL) (sum_D P(X|E*) P(D|BE*)) P(B|LE*) ] P(LE*|T) ] P(AT)
    # with every conditional here derived from the enumerated joint instead
    estar = 0  # E = yes
    ps_bl = oracle_query(asia_joint, ["S"], ["B", "L"])
    px_e = oracle_query(asia_joint, ["X"], ["E"])
    pd_be = oracle_query(asia_joint, ["D"], ["B", "E"])
    pb_le = oracle_query(asia_joint, ["B"], ["L", "E"])
    ple_t = oracle_query(asia_joint, ["L", "E"], ["T"])
    pat = oracle_query(asia_joint, ["A", "T"])

    asia_engine.observe("E", estar)
    got = asia_engine.query_joint(["A", "X", "S"])

    for a_, x_, s_ in itertools.product((0, 1), repeat=3):
        total = 0.0
        for t_ in (0, 1):
            over_l = 0.0
            for l_ in (0, 1):
                over_b = 0.0
                for b_ in (0, 1):
                    over_d = 0.0
                    for d_ in (0, 1):
                        over_d += px_e.value_at(
                            {"X": x_, "E": estar}
                        ) * pd_be.value_at({"D": d_, "B": b_, "E": estar})
                    over_b += (
                        ps_bl.value_at({"S": s_, "B": b_, "L": l_})
                        * over_d
                        * pb_le.value_at({"B": b_, "L": l_, "E": estar})
                    )
                over_l += over_b * ple_t.value_at({"L": l_, "E": estar, "T": t_})
            total += over_l * pat.value_at({"A": a_, "T": t_})
        assert got.value_at({"A": a_, "X": x_, "S": s_}) == pytest.approx(
            total, abs=1e-12
        )


def test_unnormalized_total_is_evidence_probability(asia_engine, asia_joint):
    asia_engine.observe("E", 0)
    ans = asia_engine.query_joint(["A", "X", "S"])
    want = bnquery.evidence_probability(asia_joint, {"E": 0})
    assert ans.total() == pytest.approx(want, abs=1e-12)
    assert asia_engine.evidence_probability() == pytest.approx(want, abs=1e-12)


def test_live_records_factor_the_joint_sliced_at_the_evidence():
    # every live conditional, a root's included, is P(residual | separator,
    # evidence below); only clique 0's message carries P(evidence)
    for seed in range(40):
        rng = np.random.default_rng(400 + seed)
        bn = random_network(rng, int(rng.integers(3, 11)))
        engine = QueryEngine(bn)
        names = list(bn.names)
        for _ in range(6):
            name = names[int(rng.integers(len(names)))]
            if name in engine.evidence:
                engine.retract(name)
            elif len(engine.evidence) < len(names) - 1:
                engine.observe(name, int(rng.integers(bn.var(name).cardinality)))
        sliced = enumerate_joint(bn)
        for name, state in sorted(engine.evidence.items()):
            sliced = substitute(sliced, name, state)
        product = unit_factor()
        for c in engine.tree.cliques:
            product = multiply(product, engine.stored_conditional(c.id))
        # clique 0's message
        product = multiply(product, bnquery.Factor((), [engine.evidence_probability()]))
        assert max_deviation(product, sliced) <= 1e-9


def test_observing_a_point_mass_changes_nothing():
    vs = {n: bnquery.Variable(n, ("0", "1")) for n in "ab"}
    bn = bnquery.BayesianNetwork(
        [vs["a"], vs["b"]],
        {"a": (), "b": ("a",)},
        {
            "a": bnquery.Factor([vs["a"]], [1.0, 0.0]),
            "b": bnquery.Factor([vs["a"], vs["b"]], [0.3, 0.7, 0.6, 0.4]),
        },
    )
    before = QueryEngine(bn).query_conditional(["b"])
    engine = QueryEngine(bn)
    engine.observe("a", 0)
    after = engine.query_conditional(["b"])
    assert np.array_equal(before.values, after.values)


def test_posterior_matches_oracle_with_random_evidence():
    for seed in (60, 61, 62, 63):
        bn, engine = engine_for(seed, n=8)
        joint = enumerate_joint(bn)
        rng = np.random.default_rng(seed)
        names = list(bn.names)
        rng.shuffle(names)
        e1, e2, targets = names[0], names[1], names[2:5]
        engine.observe(e1, 0)
        engine.observe(e2, 1)
        got = engine.query_conditional(targets)
        want = oracle_query(joint, targets, evidence={e1: 0, e2: 1})
        assert max_deviation(got, want) <= 1e-9


def test_off_path_evidence_is_still_exact():
    # evidence in a subtree the query never visits must still weigh the answer
    bn, engine = engine_for(77, n=10)
    joint = enumerate_joint(bn)
    leaf_owner = engine.tree.cliques[-1].residual[0]
    target = engine.tree.cliques[0].residual[0]
    engine.observe(leaf_owner, 0)
    got = engine.query_conditional([target])
    want = oracle_query(joint, [target], evidence={leaf_owner: 0})
    assert max_deviation(got, want) <= 1e-9


def test_observe_errors(asia_engine):
    with pytest.raises(MissingVariableError):
        asia_engine.observe("nope", 0)
    with pytest.raises(bnquery.BadStateError):
        asia_engine.observe("E", 5)
    with pytest.raises(bnquery.BadStateError):
        asia_engine.observe("E", 0.5)  # not truncated to state 0
    assert asia_engine.evidence == {}
    asia_engine.observe("E", np.int64(0))  # numpy integers are integers
    assert asia_engine.evidence == {"E": 0}
    asia_engine.observe("E", 0)  # same state: no-op
    with pytest.raises(EvidenceError):
        asia_engine.observe("E", 1)


def test_transient_evidence_is_applied_then_retracted(asia_bn, asia_joint):
    engine = QueryEngine(asia_bn, elimination_order=bnquery.ASIA_GOLDEN_ORDER)
    got = engine.query_conditional(["A", "X"], transient_evidence=[("E", 0)])
    want = oracle_query(asia_joint, ["A", "X"], evidence={"E": 0})
    assert max_deviation(got, want) <= 1e-9
    assert engine.evidence == {}
    # stored tables are back to the pristine objects
    for cid, st in engine.prep.items():
        assert engine.stored_conditional(cid) is st.conditional


def test_a_conflicting_transient_finding_changes_nothing(asia_engine):
    asia_engine.observe("E", 0)
    asia_engine.evidence_probability()
    with pytest.raises(EvidenceError):
        asia_engine.query_conditional(["X"], transient_evidence=[("E", 1)])
    with pytest.raises(bnquery.BadStateError):
        asia_engine.query_conditional(["X"], transient_evidence=[("E", 2)])
    assert asia_engine.evidence == {"E": 0}
    assert_settled(asia_engine)
    # a transient finding that repeats a standing one is not retracted after
    asia_engine.query_conditional(["X"], transient_evidence=[("E", 0)])
    assert asia_engine.evidence == {"E": 0}


def test_evidence_order_invariance():
    bn, _ = engine_for(88, n=9)
    names = list(bn.names)
    e1, e2 = names[2], names[6]
    a = QueryEngine(bn)
    a.observe(e1, 1)
    a.observe(e2, 0)
    b = QueryEngine(bn)
    b.observe(e2, 0)
    b.observe(e1, 1)
    targets = [names[0], names[4]]
    fa = a.query_joint(targets)
    fb = b.query_joint(targets)
    assert max_deviation(fa, fb) <= 1e-12


# -- retraction ---------------------------------------------------------------------


def test_observe_then_retract_restores_bit_identical(asia_engine):
    pristine = {
        cid: st.conditional.values.copy()
        for cid, st in asia_engine.prep.items()
    }
    asia_engine.observe("E", 0)
    asia_engine.retract("E")
    for cid in pristine:
        assert np.array_equal(
            asia_engine.stored_conditional(cid).values, pristine[cid]
        )
    assert asia_engine.evidence == {}


def test_retract_one_of_two_matches_fresh_engine():
    bn, engine = engine_for(91, n=8)
    names = list(bn.names)
    e1, e2 = names[1], names[5]
    engine.observe(e1, 0)
    engine.observe(e2, 1)
    engine.retract(e1)
    fresh = QueryEngine(bn)
    fresh.observe(e2, 1)
    targets = [names[0], names[3]]
    assert max_deviation(
        engine.query_joint(targets), fresh.query_joint(targets)
    ) == 0.0

    # seeded observe/retract interleavings leave exactly the tables a fresh
    # engine builds from the final evidence, whatever the history, and
    # whether the writes are applied one by one (a read after each) or
    # together at the end
    for seed in (92, 93, 94):
        bn, engine = engine_for(seed, n=9)
        stepwise = QueryEngine(bn)
        rng = np.random.default_rng(seed)
        names = list(bn.names)
        for _ in range(16):
            name = names[int(rng.integers(len(names)))]
            if name in engine.evidence:
                engine.retract(name)
                stepwise.retract(name)
            else:
                state = int(rng.integers(bn.var(name).cardinality))
                engine.observe(name, state)
                stepwise.observe(name, state)
            stepwise.evidence_probability()
        fresh = QueryEngine(bn)
        for name in sorted(engine.evidence, reverse=True):
            fresh.observe(name, engine.evidence[name])
        for cid in engine.prep:
            for other in (fresh, stepwise):
                assert np.array_equal(
                    engine.stored_conditional(cid).values,
                    other.stored_conditional(cid).values,
                )
        assert engine.evidence_probability() == stepwise.evidence_probability()
        for name in list(engine.evidence):
            engine.retract(name)
        for cid, st in engine.prep.items():
            assert engine.stored_conditional(cid) is st.conditional


def test_retract_cost_does_not_grow_with_other_findings():
    # a retraction reruns the collect step over the cliques its variable
    # touches; it does not replay the findings still held.  The rerun
    # happens at the next read, so the read is counted with the retraction.
    bn = chain_network(40, seed=3)
    x = "N20"

    def retract_cost(held):
        engine = QueryEngine(bn)
        for name in held:
            engine.observe(name, 1)
        engine.observe(x, 0)
        engine.evidence_probability()
        before = engine.op_counters()
        engine.retract(x)
        engine.evidence_probability()
        after = engine.op_counters()
        return (
            after.multiplications - before.multiplications,
            after.substitutions - before.substitutions,
        )

    below = "N39"  # keeps x's ancestors from taking back their pristine tables
    tree = QueryEngine(bn).tree
    assert below in tree.subtree_variables(tree.owner[x])
    others = ["N02", "N05", "N08", "N11", "N14", "N26", "N29", "N32", "N35"]
    one, ten = retract_cost([below]), retract_cost([below, *others])
    assert one[0] > 0
    assert ten[0] <= one[0] and ten[1] <= one[1]


def test_retract_without_evidence_errors(asia_engine):
    with pytest.raises(EvidenceError):
        asia_engine.retract("E")


def test_a_failed_write_changes_nothing(asia_engine):
    # errors raise at the call, before the evidence moves: the next read
    # does the work of the writes that succeeded, and no more
    twin = QueryEngine(asia_engine.bn, elimination_order=bnquery.ASIA_GOLDEN_ORDER)
    for engine in (asia_engine, twin):
        engine.observe("E", 0)
        engine.observe("S", 1)
        engine.evidence_probability()
        engine.retract("S")  # applied at the next read
    evidence = asia_engine.evidence
    with pytest.raises(bnquery.BadStateError):
        asia_engine.observe("X", 2)
    with pytest.raises(EvidenceError):
        asia_engine.observe("E", 1)  # conflicting re-observe
    with pytest.raises(EvidenceError):
        asia_engine.retract("X")  # never observed
    with pytest.raises(MissingVariableError):
        asia_engine.observe("nope", 0)
    assert asia_engine.evidence == evidence
    assert asia_engine.evidence_probability() == twin.evidence_probability()
    assert asia_engine.op_counters() == twin.op_counters()
    assert_settled(asia_engine)


def test_writes_apply_at_the_next_read(asia_engine):
    # a write does no table work; the read after it runs one refresh
    asia_engine.query_joint(["X"])
    before = asia_engine.op_counters()
    asia_engine.observe("E", 0)
    asia_engine.observe("S", 1)
    asia_engine.retract("S")
    assert asia_engine.op_counters() == before
    asia_engine.evidence_probability()
    assert asia_engine.op_counters().substitutions > before.substitutions
    assert_settled(asia_engine)
    # the read dropped the memoized answer, which holds no finding on E
    trace = []
    asia_engine.query_joint(["X"], trace=trace)
    assert "memo" not in {event.resolution for event in trace}


def test_cancelling_writes_keep_the_memo(asia_engine):
    # writes that leave the evidence as the tables hold it change nothing,
    # so clique 0's whole-query answer still answers
    asia_engine.query_joint(["A", "X", "S"])
    before = asia_engine.op_counters()
    asia_engine.observe("E", 0)
    asia_engine.retract("E")
    trace = []
    asia_engine.query_joint(["A", "X", "S"], trace=trace)
    after = asia_engine.op_counters()
    assert after.multiplications == before.multiplications
    assert after.summations == before.summations
    assert [event.resolution for event in trace] == ["memo"]


def test_a_what_if_keeps_the_work_done_before_it(asia_engine):
    # the transient finding is applied to tables and a cache of its own, and
    # those of the standing evidence are put back as they were
    first = asia_engine.query_joint(["A", "X", "S"])
    d_yes = asia_engine.bn.state_index("D", "yes")
    asia_engine.query_conditional(["T"], transient_evidence=[("D", d_yes)])
    before = asia_engine.op_counters()
    trace = []
    again = asia_engine.query_joint(["A", "X", "S"], trace=trace)
    after = asia_engine.op_counters()
    assert after.multiplications == before.multiplications
    assert after.summations == before.summations
    assert [event.resolution for event in trace] == ["memo"]
    assert again is first
    # with findings standing, a what-if applies them first and keeps them
    asia_engine.observe("S", 0)
    posterior = asia_engine.query_conditional(["X"], transient_evidence=[("B", 1)])
    assert asia_engine.evidence == {"S": 0}
    assert_settled(asia_engine)
    fresh = QueryEngine(asia_engine.bn, elimination_order=bnquery.ASIA_GOLDEN_ORDER)
    fresh.observe("S", 0)
    fresh.observe("B", 1)
    assert np.array_equal(fresh.query_conditional(["X"]).values, posterior.values)


@pytest.mark.parametrize("undo", ["failed what-if", "observe then retract", "re-observe"])
def test_writes_that_undo_each_other_cost_nothing(asia_engine, undo):
    # the next read compares each written name with the state the live
    # tables hold for it, and refreshes only the names that differ
    asia_engine.observe("E", 0)
    asia_engine.observe("B", 1)
    asia_engine.evidence_probability()
    tables = {cid: asia_engine.stored_conditional(cid) for cid in asia_engine.prep}
    before = asia_engine.op_counters()
    if undo == "failed what-if":
        with pytest.raises(EvidenceError):
            asia_engine.query_conditional(
                ["X"], transient_evidence=[("S", 1), ("E", 1)]
            )
    elif undo == "observe then retract":
        asia_engine.observe("X", 1)
        asia_engine.retract("X")
    else:
        asia_engine.retract("B")
        asia_engine.observe("B", 1)
    asia_engine.evidence_probability()
    after = asia_engine.op_counters()
    assert after.multiplications == before.multiplications
    assert after.summations == before.summations
    assert after.substitutions == before.substitutions
    for cid, table in tables.items():
        assert asia_engine.stored_conditional(cid) is table


def test_observing_every_leaf_of_a_deep_star_is_linear():
    # the 600 cliques of a star form a path 599 deep; findings on every leaf
    # refresh it once, at the read, two multiplications per clique
    shape = structure_network(star_parents(600))
    rng = np.random.default_rng(600)
    cpts = {"C": bnquery.Factor([shape.var("C")], [0.3, 0.7])}
    for name in shape.names[1:]:
        p = rng.uniform(0.1, 0.9, size=2)
        values = np.stack([p, 1 - p], axis=1)  # rows: C; columns: leaf state
        cpts[name] = bnquery.Factor([shape.var("C"), shape.var(name)], values)
    bn = bnquery.BayesianNetwork(shape.variables, shape.parents, cpts)
    engine = QueryEngine(bn)
    tree = engine.tree
    assert max(len(list(tree.path_up(c.id))) for c in tree.cliques) == 600
    leaves = shape.names[1:]
    states = rng.integers(0, 2, size=len(leaves))
    for leaf, state in zip(leaves, states):
        engine.observe(leaf, int(state))
    posterior = engine.query_conditional(["C"])
    assert engine.op_counters().multiplications <= 2 * len(tree.cliques)

    # naive Bayes in log space: log P(C) + sum of log P(leaf state | C)
    log_p = np.log(bn.cpt("C").values)
    for leaf, state in zip(leaves, states):
        log_p = log_p + np.log(bn.cpt(leaf).values[:, state])
    want = np.exp(log_p - log_p.max())
    want /= want.sum()
    assert np.allclose(posterior.values, want, atol=1e-12, rtol=0)


# -- cache and counters ----------------------------------------------------------------


def test_fresh_engine_counters_are_zero(asia_engine):
    c = asia_engine.op_counters()
    assert (
        c.multiplications,
        c.summations,
        c.substitutions,
        c.cache_hits,
        c.cache_misses,
    ) == (0, 0, 0, 0, 0)


def test_repeat_query_is_free(asia_engine):
    asia_engine.query_joint(["A", "X", "S"])
    before = asia_engine.op_counters()
    asia_engine.query_joint(["A", "X", "S"])
    after = asia_engine.op_counters()
    assert after.multiplications - before.multiplications == 0
    assert after.summations - before.summations == 0
    assert after.cache_hits - before.cache_hits >= 1


def test_repeat_query_joint_returns_the_stored_answer(asia_engine):
    first = asia_engine.query_joint(["A", "X", "S"])
    assert first.names == ("A", "X", "S")
    assert asia_engine.query_joint(["A", "X", "S"]) is first
    other_order = asia_engine.query_joint(["S", "A", "X"])
    assert other_order.names == ("S", "A", "X")
    assert max_deviation(other_order, first) == 0.0


def test_repeat_query_across_components_with_evidence_is_free():
    # the whole-query answer also saves walking both components again
    engine = QueryEngine(two_chain_forest())
    assert sum(not c.separator for c in engine.tree.cliques) == 2
    engine.observe("a", 0)
    engine.observe("d", 1)
    first = engine.query_conditional(["b", "c"])
    before = engine.op_counters()
    again = engine.query_conditional(["b", "c"])
    after = engine.op_counters()
    assert after.multiplications - before.multiplications == 0
    assert after.summations - before.summations == 0
    assert np.array_equal(first.values, again.values)


def test_overlapping_query_reuses_subtree_work(asia_bn):
    warm = QueryEngine(asia_bn, elimination_order=bnquery.ASIA_GOLDEN_ORDER)
    warm.query_joint(["A", "X", "S"])
    base = warm.op_counters().multiplications
    warm.query_joint(["X", "S"])
    warm_cost = warm.op_counters().multiplications - base

    cold = QueryEngine(asia_bn, elimination_order=bnquery.ASIA_GOLDEN_ORDER)
    cold.query_joint(["X", "S"])
    cold_cost = cold.op_counters().multiplications
    assert warm_cost < cold_cost


def test_cache_disabled_engine_matches_cell_for_cell():
    for seed in (70, 71):
        bn, cached = engine_for(seed, n=8)
        uncached = QueryEngine(bn, cache_enabled=False)
        rng = np.random.default_rng(seed)
        names = list(bn.names)
        for _ in range(6):
            k = int(rng.integers(1, 4))
            targets = list(rng.choice(names, size=k, replace=False))
            a = cached.query_joint(targets)
            b = uncached.query_joint(targets)
            assert a.names == b.names
            assert np.array_equal(a.values, b.values)


def test_an_answer_over_all_of_a_querys_targets_is_not_cached(asia_engine):
    # the parts kept are what makes the overlapping query cheaper, which
    # test_overlapping_query_reuses_subtree_work and criterion 6 check
    asia_engine.query_joint(["A", "X", "S"])
    by_members = {c.member_set: c.id for c in asia_engine.tree.cliques}
    # only clique 0 keeps it, as the whole-query answer
    whole = [k[0] for k in asia_engine._cache if k[1] == frozenset("AXS")]
    assert whole == [0]
    for members, targets in (("LEB", "XS"), ("BED", "X"), ("EX", "X")):
        key = (by_members[frozenset(members)], frozenset(targets))
        assert key in asia_engine._cache


def test_multi_target_stream_caches_no_whole_query_answer():
    # distinct 2- and 3-target queries with writes between them, on a
    # windowed DAG deep enough for targets to share many ancestors
    shape = structure_network(windowed_parents(120, seed=3))
    rng = np.random.default_rng(120)
    cpts = {}
    for name in shape.names:
        scope = [shape.var(p) for p in shape.parents[name]] + [shape.var(name)]
        p = rng.uniform(0.1, 0.9, size=[2] * (len(scope) - 1))
        cpts[name] = bnquery.Factor(scope, np.stack([p, 1 - p], axis=-1))
    bn = bnquery.BayesianNetwork(shape.variables, shape.parents, cpts)
    cached = QueryEngine(bn)
    uncached = QueryEngine(bn, cache_enabled=False)
    names = list(bn.names)
    asked: set[frozenset[str]] = set()
    while len(asked) < 60:
        if len(asked) % 7 == 6:
            observed = cached.evidence
            if observed and rng.random() < 0.5:
                name = sorted(observed)[int(rng.integers(len(observed)))]
                cached.retract(name)
                uncached.retract(name)
            else:
                name = names[int(rng.integers(len(names)))]
                if name not in observed:
                    state = int(rng.integers(2))
                    cached.observe(name, state)
                    uncached.observe(name, state)
        free = [n for n in names if n not in cached.evidence]
        k = int(rng.integers(2, 4))
        if rng.random() < 0.7:  # local: targets within a window share cliques
            lo = int(rng.integers(len(free) - 8))
            picks = rng.choice(8, size=k, replace=False) + lo
        else:
            picks = rng.choice(len(free), size=k, replace=False)
        targets = [free[int(i)] for i in picks]
        if frozenset(targets) in asked:
            continue
        asked.add(frozenset(targets))
        keys = set(cached._cache)
        a = cached.query_joint(targets)
        b = uncached.query_joint(targets)
        assert a.names == b.names
        assert np.array_equal(a.values, b.values)
        # an earlier, larger query may have cached a part over these targets;
        # clique 0 keeps the whole-query answer
        added = set(cached._cache) - keys
        assert (0, frozenset(targets)) in added
        assert not any(k[1] == frozenset(targets) for k in added if k[0] != 0)
    assert cached.op_counters().cache_hits > 0


def test_cached_answers_survive_unrelated_evidence(asia_engine):
    # caching plus substitution keeps entries usable after observing; a
    # write applies at the next read, so each check follows a read
    asia_engine.query_joint(["X"])
    asia_engine.observe("A", 0)  # A's owner is the root; subtree entries survive
    asia_engine.evidence_probability()
    ex = next(
        c.id for c in asia_engine.tree.cliques if c.member_set == frozenset("EX")
    )
    assert (ex, frozenset({"X"})) in asia_engine._cache
    # retracting A, and a query with transient evidence on A, refresh only
    # the root's tables, so the entry below it survives both
    asia_engine.retract("A")
    asia_engine.evidence_probability()
    assert (ex, frozenset({"X"})) in asia_engine._cache
    asia_engine.query_conditional(["T"], transient_evidence=[("A", 0)])
    asia_engine.evidence_probability()
    assert (ex, frozenset({"X"})) in asia_engine._cache


def test_factors_shared_across_threads_read_consistently(asia_bn):
    # immutable tables may back any number of concurrent readers; one engine
    # per thread, all sharing the same network and CPT arrays
    import threading

    results = {}

    def work(tag):
        engine = QueryEngine(asia_bn, elimination_order=bnquery.ASIA_GOLDEN_ORDER)
        results[tag] = engine.query_joint(["X", "D"]).values

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for other in list(results.values())[1:]:
        assert np.array_equal(results[0], other)


def test_normalization_properties(asia_engine):
    ans = asia_engine.query_joint(["A", "X", "S"])
    assert ans.total() == pytest.approx(1.0, abs=1e-9)
    cond = asia_engine.query_conditional(["X"], ["T", "L"])
    sums = bnquery.reorder_scope(cond, ("T", "L", "X")).values.sum(axis=-1)
    for s in sums.reshape(-1):
        assert s == pytest.approx(1.0, abs=1e-9) or s == 0.0


# -- depth and the validation boundary ---------------------------------------------


def test_deep_chain_answers_under_a_low_recursion_limit():
    # a 3000-variable chain compiles to a clique path 2999 deep; its far
    # marginal, and a finding at its tail, must not need the interpreter's
    # stack, so both run with the recursion limit at 200
    bn = chain_network(3000, seed=11)
    names = bn.names
    engine = QueryEngine(bn)
    tree = engine.tree
    assert len(list(tree.path_up(tree.owner[names[-1]]))) == 2999
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        far = engine.query_conditional([names[-1]])
        engine.observe(names[-1], 1)
        posterior = engine.query_conditional([names[0]])
        engine.retract(names[-1])
        prior = engine.query_conditional([names[0]])
        far_again = engine.query_conditional([names[-1]])
    finally:
        sys.setrecursionlimit(limit)
    assert sys.getrecursionlimit() == limit
    assert engine.evidence == {}

    # chain matrix products: forward for the marginal, backward for P(tail=1 | head)
    forward = bn.cpt(names[0]).values
    backward = np.array([0.0, 1.0])
    for name in names[1:]:
        forward = forward @ bn.cpt(name).values
    for name in reversed(names[1:]):
        backward = bn.cpt(name).values @ backward
    head = bn.cpt(names[0]).values
    assert np.allclose(far.values, forward, atol=1e-12, rtol=0)
    assert np.array_equal(far_again.values, far.values)
    want = head * backward / (head * backward).sum()
    assert np.allclose(posterior.values, want, atol=1e-12, rtol=0)
    assert np.allclose(prior.values, head, atol=1e-12, rtol=0)


def test_engine_validates_no_factor_after_set_up(asia_bn, monkeypatch):
    # factors are validated where they enter; every table the engine builds
    # afterwards comes from the primitives' trusted results
    engine = QueryEngine(asia_bn, elimination_order=bnquery.ASIA_GOLDEN_ORDER)
    calls = []
    validate = bnquery.Factor.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        validate(self, *args, **kwargs)

    monkeypatch.setattr(bnquery.Factor, "__init__", counting)
    engine.query_joint(["X", "S", "A"])  # cold
    engine.query_conditional(["D"], ["B"])
    engine.observe("X", 1)
    engine.query_conditional(["L", "T"])
    engine.evidence_probability()
    engine.retract("X")
    engine.query_conditional(["T"], transient_evidence=[("D", 0), ("S", 1)])
    assert calls == []
    bnquery.unit_factor()
    assert len(calls) == 1  # the count does see the public constructor


def test_building_an_engine_validates_no_factor(monkeypatch):
    bn = bnquery.load_network(bnquery.asia_path())
    calls = []
    validate = bnquery.Factor.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        validate(self, *args, **kwargs)

    monkeypatch.setattr(bnquery.Factor, "__init__", counting)
    QueryEngine(bn)
    assert calls == []
