"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import bnquery
from bnquery import (
    Factor,
    QueryEngine,
    compile_network,
    enumerate_joint,
    evidence_probability,
    max_deviation,
    multiply,
    normalize_conditional,
    oracle_query,
    preprocess,
    unit_factor,
)
from bnquery.cli import main as cli_main
from corpus import chain_network, random_network, random_query

ASIA = bnquery.asia_path()
ORDER = bnquery.ASIA_GOLDEN_ORDER


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


# -- shared corpus -------------------------------------------------------------

N_NETWORKS = 200
QUERIES_PER_NETWORK = 5


@pytest.fixture(scope="module")
def corpus():
    """(network, engine, joint) triples for the random-network criteria."""
    out = []
    for seed in range(N_NETWORKS):
        rng = np.random.default_rng(20_000 + seed)
        n = int(rng.integers(3, 13))
        bn = random_network(rng, n)
        out.append((bn, QueryEngine(bn), enumerate_joint(bn), rng))
    return out


# -- criteria -------------------------------------------------------------------


def test_criterion_1_structural_golden(asia_bn):
    with criterion(1, "structural golden"):
        start = time.perf_counter()
        tree = compile_network(asia_bn, ORDER)
        expected = {
            frozenset("AT"): set(),
            frozenset("TLE"): {"T"},
            frozenset("LEB"): {"L", "E"},
            frozenset("BLS"): {"B", "L"},
            frozenset("EBD"): {"E", "B"},
            frozenset("EX"): {"E"},
        }
        got = {c.member_set: set(c.separator) for c in tree.cliques}
        assert got == expected
        roots = [c.id for c in tree.cliques if c.parent is None]
        assert roots == [0] and tree.cliques[0].member_set == frozenset("AT")
        assert time.perf_counter() - start < 1.0


GOLDEN_BULLETS = [
    # (visited clique, query targets, conditioning separator)
    (frozenset("AT"), {"A", "X", "S"}, frozenset()),
    (frozenset("TLE"), {"X", "S"}, frozenset("T")),
    (frozenset("LEB"), {"X", "S"}, frozenset("LE")),
    (frozenset("BLS"), {"S"}, frozenset("BL")),
    (frozenset("EBD"), {"X"}, frozenset("EB")),
    (frozenset("EX"), {"X"}, frozenset("E")),
]


def test_criterion_2_trace_golden(asia_bn, capsys):
    with criterion(2, "worked-example trace golden"):
        start = time.perf_counter()
        code = cli_main(
            ["--order", ",".join(ORDER), ASIA, "query", "P(A,X,S)", "--trace"]
        )
        out = capsys.readouterr().out
        assert code == 0
        engine = QueryEngine(asia_bn, elimination_order=ORDER)
        trace = []
        engine.query_joint(["A", "X", "S"], trace=trace)
        got = [
            (
                engine.tree.cliques[e.clique_id].member_set,
                set(e.targets),
                frozenset(e.separator),
            )
            for e in trace
        ]
        assert got == [(m, t, s) for m, t, s in GOLDEN_BULLETS]
        # sub-queries sent along the way carry exactly these target/separator sets
        requests = [
            (set(tg), frozenset(engine.tree.cliques[cid].separator))
            for e in trace
            for cid, tg, _sep in e.requests
        ]
        assert requests == [
            ({"X", "S"}, frozenset("T")),
            ({"X", "S"}, frozenset("LE")),
            ({"S"}, frozenset("BL")),
            ({"X"}, frozenset("EB")),
            ({"X"}, frozenset("E")),
        ]
        # and the CLI trace text names one visited clique per line
        printed = [line for line in out.splitlines() if line.startswith("(")]
        assert len(printed) == 6
        assert time.perf_counter() - start < 1.0


def test_criterion_3_oracle_equivalence(corpus):
    with criterion(3, "oracle equivalence on the random corpus"):
        start = time.perf_counter()
        worst = 0.0
        for bn, engine, joint, rng in corpus:
            for _ in range(QUERIES_PER_NETWORK):
                targets, given, evidence = random_query(rng, bn)
                got = engine.query_conditional(
                    targets, given, tuple(evidence.items())
                )
                want = oracle_query(joint, targets, given, evidence)
                worst = max(worst, max_deviation(got, want))
        assert worst <= 1e-9, f"max deviation {worst}"
        assert time.perf_counter() - start < 60.0


def test_criterion_4_joint_factorization(corpus):
    with criterion(4, "residual-conditional factorization"):
        for bn, engine, joint, _rng in corpus:
            product = unit_factor()
            for c in engine.tree.cliques:
                product = multiply(product, engine.prep[c.id].conditional)
            mass = engine.prep[0].message.total()
            product = multiply(product, Factor((), [mass]))
            assert max_deviation(product, joint) <= 1e-9


def test_criterion_5_evidence_correctness(asia_bn, asia_joint):
    with criterion(5, "evidence substitution semantics"):
        engine = QueryEngine(asia_bn, elimination_order=ORDER)
        engine.observe("E", 0)
        raw = engine.query_joint(["A", "X", "S"])
        posterior = normalize_conditional(raw, ["A", "X", "S"])
        want = oracle_query(asia_joint, ["A", "X", "S"], evidence={"E": 0})
        assert max_deviation(posterior, want) <= 1e-9
        p_e = evidence_probability(asia_joint, {"E": 0})
        assert abs(raw.total() - p_e) <= 1e-12


def test_criterion_6_incrementality(asia_bn):
    with criterion(6, "incremental queries"):
        engine = QueryEngine(asia_bn, elimination_order=ORDER)
        engine.query_joint(["A", "X", "S"])
        before = engine.op_counters()
        engine.query_joint(["A", "X", "S"])
        after = engine.op_counters()
        assert after.multiplications == before.multiplications
        assert after.summations == before.summations
        assert after.cache_hits > before.cache_hits

        warm_cost = None
        base = engine.op_counters().multiplications
        engine.query_joint(["X", "S"])
        warm_cost = engine.op_counters().multiplications - base

        cold = QueryEngine(asia_bn, elimination_order=ORDER)
        cold.query_joint(["X", "S"])
        cold_cost = cold.op_counters().multiplications
        assert warm_cost < cold_cost


def test_criterion_7_cache_soundness(corpus):
    with criterion(7, "cache soundness"):
        for i, (bn, _engine, _joint, _rng) in enumerate(corpus):
            cached = QueryEngine(bn)
            uncached = QueryEngine(bn, cache_enabled=False)
            rng = np.random.default_rng(40_000 + i)
            names = list(bn.names)
            for _ in range(4):
                k = int(rng.integers(1, min(3, len(names)) + 1))
                targets = list(rng.choice(names, size=k, replace=False))
                a = cached.query_joint(targets)
                b = uncached.query_joint(targets)
                assert a.names == b.names
                assert np.array_equal(a.values, b.values)


def test_criterion_8_preprocessing_advantage():
    with criterion(8, "preprocessing beats enumeration"):
        bn = chain_network(20)
        engine = QueryEngine(bn)
        engine.reset_counters()
        engine.query_joint(["N00", "N19"])
        query_mults = engine.op_counters().multiplications
        assert query_mults > 0

        oracle_counters = bnquery.OpCounters()
        enumerate_joint(bn, oracle_counters)
        assert oracle_counters.multiplications >= 10 * query_mults
