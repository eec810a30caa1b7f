"""Tests of the benchmark harness itself, on networks small enough to be quick."""

import gc
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import bnquery as bq
from perfbench import netgen, refs, run, workloads
from perfbench.tracing import Tracer

BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture()
def small(monkeypatch, tmp_path):
    """Shrink every workload so a whole run takes well under a second."""
    monkeypatch.setattr(workloads, "BUILD_NETWORKS", (
        ("dag30", "dag", 30), ("chain20", "chain", 20), ("star10", "star", 10),
        ("asia", "asia", 0),
    ))
    monkeypatch.setattr(workloads, "QUERY_MIX_VARS", 40)
    monkeypatch.setattr(workloads, "POOL_SIZE", 60)
    monkeypatch.setattr(workloads, "QUERIES_PER_UNIT", 80)
    monkeypatch.setattr(workloads, "CHURN_LEAVES", 12)
    monkeypatch.setattr(workloads, "CHURN_DAG_VARS", 20)
    monkeypatch.setattr(workloads, "FINDINGS_PER_SESSION", 8)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)


def _run(workload, trace, seed=3):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("make", [
    lambda seed: netgen.windowed_dag(seed, 40),
    lambda seed: netgen.chain(seed, 30),
    lambda seed: netgen.star(seed, 25),
    lambda seed: netgen.forest(seed, 10, 20),
])
def test_generators_are_deterministic(make):
    text = make(5)
    assert make(5) == text
    assert make(6) != text
    bn = bq.parse_network(text)
    assert all(len(name) == 5 and name[1:].isdigit() for name in bn.names if name != "C")


def test_windowed_dag_respects_window():
    bn = bq.parse_network(netgen.windowed_dag(1, 60))
    pos = {name: i for i, name in enumerate(bn.names)}
    for name in bn.names:
        assert len(bn.parents[name]) <= netgen.MAX_PARENTS
        assert all(0 < pos[name] - pos[p] <= netgen.WINDOW for p in bn.parents[name])


def test_references_match_the_oracle():
    rng = np.random.default_rng(0)
    dag_bn = bq.parse_network(netgen.windowed_dag(2, 11))
    joint = bq.enumerate_joint(dag_bn)
    names = dag_bn.names
    evidence = {names[1]: 1, names[6]: 0, names[9]: 1}
    sweep = refs.WindowedDag(dag_bn, names, netgen.WINDOW).sweep(evidence)
    for _ in range(20):
        a = int(rng.integers(0, len(names) - 1))
        b = a + int(rng.integers(1, min(netgen.WINDOW, len(names) - 1 - a) + 1))
        if names[a] in evidence or names[b] in evidence:
            continue
        want = bq.oracle_query(joint, [names[b]], [names[a]], evidence)
        got = sweep.conditional([names[b]], [names[a]])
        assert refs.deviation(got, bq.reorder_scope(want, [names[b], names[a]]).values) < 1e-12

    chain_bn = bq.parse_network(netgen.chain(2, 12))
    joint = bq.enumerate_joint(chain_bn)
    for name, got in zip(chain_bn.names, refs.chain_marginals(chain_bn, chain_bn.names)):
        assert refs.deviation(got, bq.oracle_query(joint, [name]).values) < 1e-12

    star_bn = bq.parse_network(netgen.star(2, 8))
    joint = bq.enumerate_joint(star_bn)
    evidence = {"L0001": 1, "L0004": 0, "L0007": 1}
    got = refs.star_class_posterior(star_bn, "C", evidence)
    assert refs.deviation(got, bq.oracle_query(joint, ["C"], (), evidence).values) < 1e-12
    got = refs.star_leaf_marginal(star_bn, "C", "L0003")
    assert refs.deviation(got, bq.oracle_query(joint, ["L0003"]).values) < 1e-12


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_printed_metrics_match_benchmark_json(small, workload):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


def test_counts_repeat_exactly_with_the_same_seed(small):
    for workload in workloads.WORKLOADS:
        first, second = (_run(workload, 1)["metrics"] for _ in range(2))
        counts = [n for n, m in first.items() if m["unit"] in ("count", "ratio")]
        assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_wrong_answer_counts_as_failed(small, monkeypatch):
    honest = workloads.ask

    def skewed(engine, text, **kwargs):
        answer = honest(engine, text, **kwargs)
        return answer + 1e-6 if text == "P(C)" else answer

    monkeypatch.setattr(workloads, "ask", skewed)
    rec = workloads.Recorder()
    workloads.run_evidence_churn(3, 0, rec)
    # P(C) follows every observe: 8 findings x 2 sessions x 3 units.
    assert rec.wrong == {"class": 48}
    assert not rec.raised and rec.failed == 48
    result = _run("evidence-churn", 0)
    assert not result["correct"] and result["failed"] == 48


def test_raising_call_counts_as_failed_and_run_goes_on(small, monkeypatch):
    honest = workloads.ask

    def flaky(engine, text, **kwargs):
        if text == "P(N0019)":
            raise RecursionError("too deep")
        return honest(engine, text, **kwargs)

    monkeypatch.setattr(workloads, "ask", flaky)
    result = _run("build", 0)
    assert result["correct"] and result["failed"] == workloads.MIN_UNITS
    assert result["attempted"] == workloads.MIN_UNITS * 4 * 3
    assert gc.isenabled()  # the collector is back on after a call that raised


def test_tracer_nests_spans_and_restores_the_package():
    original = bq.QueryEngine.query_joint
    tracer = Tracer()
    tracer.active = True
    bn = bq.load_network(bq.asia_path())
    with tracer.installed():
        with tracer.operation("setup", "asia"):
            engine = bq.QueryEngine(bn)
        with tracer.operation("query"):
            engine.query_conditional(["X"], transient_evidence=[("S", 0)])
    assert bq.QueryEngine.query_joint is original
    names = {span[3]: span for span in tracer.spans}
    for stage in ("min_fill_order", "mcs_numbering", "CliqueTree", "collect_conditionals"):
        assert names[stage][0] == 0
    by_id = {span[1]: span for span in tracer.spans}
    assert by_id[names["mcs_numbering"][2]][3] == "order_cliques"
    assert by_id[names["observe"][2]][3] == "query_conditional"
    assert all(value >= -1e-9 for _op, _name, value in tracer.self_times())
    assert workloads.staged_build_matches(bn, engine)
