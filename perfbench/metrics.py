"""Turn a Recorder (and a Tracer, in a traced run) into named metrics.

End-to-end metrics come from untraced units.  ``setup_s`` is the median
set-up time of each network, summed over the workload's networks.  The
latency percentiles are taken over every call of their kind in every
untraced unit of the run, and ``queries_per_s`` is the answers of those
units over the time spent in their calls: medians over the whole run, so a
slow spell of the shared machine shifts them only by its share of the run.

Per-layer times are self times of the traced spans.  A set-up stage is
reported per set-up of the workload's networks (median over a network's
traced set-ups, summed over its networks, like ``setup_s``); an engine or
parser layer as the mean per call of its kind.  Per-layer counts come from
unit 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from .tracing import Tracer
from .workloads import QUERY_KINDS, Recorder

#: Build-stage span name -> per-layer metric.
SETUP_SPANS = {
    "parse_network": "netfile.parse_s",
    "moralize": "graphs.moralize_s",
    "min_fill_order": "graphs.min_fill_order_s",
    "triangulate": "graphs.triangulate_s",
    "find_cliques": "graphs.find_cliques_s",
    "mcs_numbering": "graphs.mcs_numbering_s",
    "order_cliques": "cliquetree.order_cliques_s",
    "CliqueTree": "cliquetree.tree_s",
    "compile_network": "cliquetree.compile_s",
    "assign_cpts": "preprocess.assign_cpts_s",
    "compute_potentials": "preprocess.potentials_s",
    "collect_conditionals": "preprocess.collect_s",
    "distribute_marginals": "preprocess.distribute_s",
    "preprocess": "preprocess.states_s",
    "QueryEngine": "engine.init_s",
}
ENGINE_SPANS = {"query_joint", "query_conditional", "observe", "retract"}
EVIDENCE_KINDS = ("class", "observe", "retract", "whatif")


def end_to_end(rec: Recorder, traced: bool = False) -> dict[str, tuple[float | None, str, int]]:
    """name -> (value, unit, samples), from the units run with tracing ``traced``."""
    units = [u for u in range(rec.units) if rec.is_traced(u) == traced]
    setups: dict[str, list[float]] = defaultdict(list)
    for u in units:
        for label, samples in rec.setup[u].items():
            setups[label].extend(samples)

    calls: dict[str, list[float]] = defaultdict(list)
    for u in units:
        for kind, samples in rec.latency[u].items():
            calls[kind].extend(samples)
    queries = calls["query"]
    answered = sum(len(calls[kind]) for kind in QUERY_KINDS)
    busy = sum(sum(v) for v in calls.values())
    sessions = [s for u in units for s in rec.session[u]]

    def p50_ms(kind):
        xs = calls[kind]
        return (statistics.median(xs) * 1e3 if xs else None), "ms", len(xs)

    out = {
        "setup_s": (sum(statistics.median(v) for v in setups.values()) if setups else None,
                    "s", sum(len(v) for v in setups.values())),
        "query_p50_ms": p50_ms("query"),
        "query_p99_ms": (float(np.percentile(queries, 99)) * 1e3 if queries else None,
                         "ms", len(queries)),
        "queries_per_s": (answered / busy if answered else None, "1/s", answered),
        "peak_rss_mb": (rec.peak_rss_mb, "MB", 1),
    }
    for kind in EVIDENCE_KINDS:
        out[f"{kind}_p50_ms"] = p50_ms(kind)
    out["session_p50_s"] = (statistics.median(sessions) if sessions else None,
                            "s", len(sessions))
    out["failed_share"] = (rec.failed / rec.attempted if rec.attempted else None,
                           "ratio", rec.attempted)
    return out


def per_layer(rec: Recorder, tracer: Tracer) -> dict[str, tuple[float | None, str]]:
    """name -> (value, unit) for every layer metric."""
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for op, name, self_s in tracer.self_times():
        per_op[op][name] += self_s
    setup: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    engine_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    parse_s = 0.0
    for op, names in per_op.items():
        kind, key = tracer.ops[op]
        if kind == "setup":
            for name, value in names.items():
                setup[key][name].append(value)
            continue
        calls[kind] += 1
        engine_s[kind] += sum(v for n, v in names.items() if n in ENGINE_SPANS)
        parse_s += names.get("parse_query", 0.0)

    out: dict[str, tuple[float | None, str]] = {}
    for span, metric in SETUP_SPANS.items():
        out[metric] = (sum(statistics.median(by[span]) for by in setup.values() if by[span]), "s")
    for kind in ("query",) + EVIDENCE_KINDS:
        out[f"engine.{kind}_s"] = (engine_s[kind] / calls[kind] if calls[kind] else None, "s")
    answered = sum(calls[k] for k in QUERY_KINDS)
    out["queryparse.parse_s"] = (parse_s / answered if answered else None, "s")

    shape = rec.shape
    out["graphs.fill_edges"] = (shape["fill_edges"], "count")
    for name in ("cliques", "depth", "max_clique_cells", "total_cells"):
        out[f"cliquetree.{name}"] = (shape[name], "count")

    queries = rec.ops["query"]
    work = rec.work["query"]
    hits = sum(rec.work[k]["cache_hits"] for k in QUERY_KINDS)
    lookups = hits + sum(rec.work[k]["cache_misses"] for k in QUERY_KINDS)
    out["engine.cache_hit_ratio"] = (hits / lookups if lookups else None, "ratio")
    out["engine.cache_lookups"] = (lookups, "count")
    out["engine.cache_entries"] = (rec.cache_peak, "count")
    out["engine.cliques_visited_per_query"] = (
        rec.cliques_visited / queries if queries else None, "count")
    for resolution in ("computed", "stored", "cache", "memo"):
        out[f"engine.resolutions.{resolution}"] = (rec.resolutions[resolution], "count")
    for name in ("multiplications", "summations"):
        out[f"factors.{name}_per_query"] = (work[name] / queries if queries else None, "count")
    observes = rec.ops["observe"]
    out["factors.substitutions_per_observe"] = (
        rec.work["observe"]["substitutions"] / observes if observes else None, "count")

    traced, untraced = end_to_end(rec, True), end_to_end(rec, False)
    for name, unit in (("setup_s", "s"), ("query_p50_ms", "ms")):
        a, b = traced[name][0], untraced[name][0]
        out[f"trace.{name}_overhead"] = (a - b if a is not None and b is not None else None, unit)
    return out
