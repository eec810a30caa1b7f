"""Run one bnquery benchmark workload and print its metrics.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the package is imported from its
``src/`` directory.  The report lists every metric with its unit and
sample count; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
A traced run also writes its spans to ``.bench_traces/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_traces"

#: End-to-end metrics in the JSON line; every workload measures them.  The
#: report also prints query_p99_ms, but build answers 13 queries a unit, about
#: 39 a run, too few for a percentile above the median to have ten beyond it.
E2E_METRICS = ("setup_s", "query_p50_ms", "queries_per_s", "peak_rss_mb")

#: Per-layer metrics in the JSON line of a traced run.  The evidence-only
#: layers (engine.observe_s, engine.retract_s, engine.whatif_s,
#: factors.substitutions_per_observe) appear in the report only, because
#: two of the three workloads make no such calls.
LAYER_METRICS = (
    "netfile.parse_s",
    "graphs.moralize_s",
    "graphs.min_fill_order_s",
    "graphs.triangulate_s",
    "graphs.find_cliques_s",
    "graphs.mcs_numbering_s",
    "graphs.fill_edges",
    "cliquetree.order_cliques_s",
    "cliquetree.tree_s",
    "cliquetree.compile_s",
    "cliquetree.cliques",
    "cliquetree.depth",
    "cliquetree.max_clique_cells",
    "cliquetree.total_cells",
    "preprocess.assign_cpts_s",
    "preprocess.potentials_s",
    "preprocess.collect_s",
    "preprocess.distribute_s",
    "preprocess.states_s",
    "engine.init_s",
    "engine.query_s",
    "engine.cache_hit_ratio",
    "engine.cache_lookups",
    "engine.cache_entries",
    "engine.cliques_visited_per_query",
    "engine.resolutions.computed",
    "engine.resolutions.stored",
    "engine.resolutions.cache",
    "engine.resolutions.memo",
    "factors.multiplications_per_query",
    "factors.summations_per_query",
    "queryparse.parse_s",
    "trace.setup_s_overhead",
    "trace.query_p50_ms_overhead",
)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bnquery" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'bnquery'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import metrics
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    rec = Recorder(tracer)
    if tracer is None:
        WORKLOADS[args.workload](args.seed, args.seconds, rec)
    else:
        with tracer.installed():
            WORKLOADS[args.workload](args.seed, args.seconds, rec)

    print(f"workload {args.workload}  seed {args.seed}  units {rec.units}")
    e2e = metrics.end_to_end(rec)
    blocks = [("end to end, untraced units", e2e)]
    if tracer is not None:
        blocks.append(("end to end, traced units", metrics.end_to_end(rec, traced=True)))
    for title, block in blocks:
        print(f"  {title}:")
        for name, (value, unit, n) in block.items():
            print(f"    {name:<24} {_fmt(value):>12} {unit:<6} n={n}")
    print(f"  failed {rec.failed} of {rec.attempted}; worst deviation from a reference "
          f"{rec.worst_deviation:.3g}")
    for reason, count in sorted((rec.raised + rec.wrong).items()):
        print(f"    {count} x {reason}")
    if tracer is None:
        selected = {name: (e2e[name][0], e2e[name][1]) for name in E2E_METRICS}
    else:
        layers = metrics.per_layer(rec, tracer)
        print("  per layer, traced units:")
        for name, (value, unit) in layers.items():
            print(f"    {name:<36} {_fmt(value):>12} {unit}")
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
        selected = {name: layers[name] for name in LAYER_METRICS}
    missing = [name for name, (value, _unit) in selected.items() if value is None]
    if missing:
        print(f"error: no measurement for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not rec.wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in selected.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
