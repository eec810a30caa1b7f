"""The three benchmark workloads and the bookkeeping they share.

A run repeats a workload's *unit* until another unit would overrun
``seconds`` and at least ``MIN_UNITS`` units are done.  Each unit builds
fresh engines.  On build and query-mix every unit makes the same calls, so
a repeated query-mix answer must equal its first one bit for bit; on
evidence-churn each unit runs new sessions.  The harness is one client in
a closed loop: each call starts when the previous one returns.  Cyclic
garbage collection waits until a timed call has returned.  Answers are
checked outside the timed calls.  A call that raises, or whose answer fails
its check, counts as failed, and the run carries on.

In a traced run the even units are traced and the odd ones are not, so the
run measures its own tracing overhead.  Counts (``OpCounters`` deltas,
``TraceEvent`` resolutions, cache sizes, tree shapes) come from unit 0 of a
traced run, which every run with the same seed executes identically; that
unit also checks that the public build stages, composed by hand, give each
engine's clique tree.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable

import numpy as np

import bnquery as bq

from . import netgen, refs
from .tracing import Tracer

MIN_UNITS = 3

#: build: (label, generator, size).  Two sizes per family show growth.
BUILD_NETWORKS = (
    ("dag500", "dag", 500),
    ("dag1000", "dag", 1000),
    ("chain750", "chain", 750),
    ("chain1500", "chain", 1500),
    ("star200", "star", 200),
    ("star400", "star", 400),
    ("asia", "asia", 0),
)

# query-mix
QUERY_MIX_VARS = 400
POOL_SIZE = 3000
ZIPF_EXPONENT = 1.1
QUERIES_PER_UNIT = 2000
#: Query shapes (far pair, targets, conditioned on one of them), taken in
#: turn as the pool is drawn: 70% local sets of 1-3 variables within one
#: window, 30% far pairs, 3 of the 7 multi-variable sets conditioned.
#: Popularity follows pool order, so every seed's head of a few dozen
#: queries, which makes most of the stream, has the same mix of shapes.  A
#: memo hit on a conditional costs more than one on a joint, and with
#: shapes drawn freely the median latency moved by a tenth with the seed.
QUERY_SHAPES = (
    (False, 1, False), (False, 2, True), (True, 2, False), (False, 3, False),
    (False, 2, False), (True, 2, True), (False, 1, False), (False, 3, True),
    (True, 2, False), (False, 1, False),
)

# evidence-churn
CHURN_LEAVES = 200
CHURN_DAG_VARS = 200
FINDINGS_PER_SESSION = 30
WHATIF_EVERY = 4
SESSIONS_PER_UNIT = 2

#: Calls that return an answer.  On evidence-churn "class" is P(C), which
#: reads the star's root and costs a fraction of the DAG "query" beside it;
#: pooling the two would put the median on the gap between them.
QUERY_KINDS = ("query", "class", "whatif")
COUNTERS = ("multiplications", "summations", "substitutions", "cache_hits", "cache_misses")


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def ask(engine: bq.QueryEngine, text: str, trace=None) -> np.ndarray:
    """One query call as a user makes it: expression text in, table out."""
    parsed = bq.parse_query(text)
    transient = tuple(
        (name, engine.bn.state_index(name, label))
        for name, label in parsed.transient_evidence
    )
    query = bq.Query(parsed.targets, parsed.given, transient)
    return engine.query(query, trace=trace).values


def observe(engine: bq.QueryEngine, name: str, state: int) -> None:
    engine.observe(name, state)


def retract(engine: bq.QueryEngine, name: str) -> None:
    engine.retract(name)


def expr(targets, given=(), transient=()) -> str:
    right = list(given) + [f"{n}={s}" for n, s in transient]
    inner = ", ".join(targets) + (" | " + ", ".join(right) if right else "")
    return f"P({inner})"


class Recorder:
    """Every call's latency and failure, by unit; counts in unit 0 of a traced run."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.units = 0
        # unit -> kind (or network label, for set-ups) -> seconds per call
        self.latency = defaultdict(lambda: defaultdict(list))
        self.setup = defaultdict(lambda: defaultdict(list))
        self.session = defaultdict(list)  # unit -> seconds per session
        self.busy = defaultdict(float)  # unit -> seconds inside engine calls
        self.attempted = 0
        self.raised: Counter = Counter()
        self.wrong: Counter = Counter()
        self.worst_deviation = 0.0
        self.counting = False
        self.ops: Counter = Counter()
        self.work: dict[str, Counter] = defaultdict(Counter)
        self.resolutions: Counter = Counter()
        self.cliques_visited = 0
        self.cache_peak = 0
        self.shape: Counter = Counter()
        self.peak_rss_mb = 0.0

    def is_traced(self, unit: int) -> bool:
        return self.tracer is not None and unit % 2 == 0

    def start_unit(self, unit: int) -> None:
        self.units = unit + 1
        if self.tracer is not None:
            self.tracer.active = self.is_traced(unit)
        self.counting = self.tracer is not None and unit == 0

    def build(self, label: str, text: str) -> bq.QueryEngine | None:
        """Set-up: .net text to a ready engine, timed as one call."""
        self.attempted += 1
        try:
            with _gc_deferred(), self._operation("setup", label):
                start = time.perf_counter()
                engine = bq.QueryEngine(bq.parse_network(text))
                elapsed = time.perf_counter() - start
        except Exception as exc:  # counted as a failed set-up; the run goes on
            self._failed(f"setup {label}: {type(exc).__name__}")
            return None
        self.setup[self.units - 1][label].append(elapsed)
        if self.counting:
            _count_shape(self.shape, engine)
            if not staged_build_matches(engine.bn, engine):
                self.wrong[f"staged build {label}"] += 1
        return engine

    def call(self, kind: str, engine: bq.QueryEngine, fn: Callable, *args):
        """Time one engine call; returns (ok, result)."""
        unit = self.units - 1
        self.attempted += 1
        trace = [] if self.counting and kind == "query" else None
        kwargs = {"trace": trace} if trace is not None else {}
        before = engine.op_counters() if self.counting else None
        start = time.perf_counter()
        try:
            with _gc_deferred(), self._operation(kind):
                start = time.perf_counter()
                result = fn(engine, *args, **kwargs)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # counted as a failed call; the run goes on
            self.busy[unit] += time.perf_counter() - start
            self._failed(f"{kind}: {type(exc).__name__}")
            return False, None
        self.busy[unit] += elapsed
        self.latency[unit][kind].append(elapsed)
        if self.counting:
            after = engine.op_counters()
            self.ops[kind] += 1
            for name in COUNTERS:
                self.work[kind][name] += getattr(after, name) - getattr(before, name)
            self.cache_peak = max(self.cache_peak, engine.cache_size())
            for event in trace or ():
                self.resolutions[event.resolution] += 1
                self.cliques_visited += event.clique_id is not None
        return True, result

    def _failed(self, reason: str) -> None:
        if not self.raised[reason]:  # the first traceback of each kind of failure
            traceback.print_exc(limit=-3, file=sys.stderr)
        self.raised[reason] += 1

    def _operation(self, kind: str, key: str = ""):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.operation(kind, key)

    def check(self, kind: str, answer: np.ndarray, reference: np.ndarray, times: int = 1):
        dev = refs.deviation(answer, reference)
        self.worst_deviation = max(self.worst_deviation, dev)
        if not dev <= refs.TOLERANCE:
            self.wrong[kind] += times

    def mark_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    @property
    def failed(self) -> int:
        return sum(self.raised.values()) + sum(self.wrong.values())


@contextmanager
def _gc_deferred():
    """Hold off the cyclic garbage collector for one timed call.

    A full collection walks every live object, so with an engine of a
    thousand cliques in memory it lands on whichever call happens to cross
    the allocation threshold and adds tens of milliseconds to it.  As in
    ``timeit``, collections wait until the call returns; the collector then
    catches up at its next allocation, outside the timed region.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _count_shape(shape: Counter, engine: bq.QueryEngine) -> None:
    tree = engine.tree
    shape["cliques"] += len(tree.cliques)
    shape["fill_edges"] += len(tree.fill_edges)
    depth: dict[int, int] = {}
    for c in tree.cliques:
        depth[c.id] = 1 if c.parent is None else depth[c.parent] + 1
        cells = 1
        for name in c.members:
            cells *= engine.bn.var(name).cardinality
        shape["total_cells"] += cells
        shape["max_clique_cells"] = max(shape["max_clique_cells"], cells)
    shape["depth"] = max(shape["depth"], max(depth.values()))


def staged_build_matches(bn: bq.BayesianNetwork, engine: bq.QueryEngine) -> bool:
    """The public build stages, composed by hand, give the engine's tree."""
    moral = bq.moralize(bn)
    order = bq.min_fill_order(moral)
    filled, fill = bq.triangulate(moral, order)
    raw = bq.find_cliques(filled, order)
    priority = {name: i for i, name in enumerate(bn.names)}
    tree = bq.CliqueTree(bq.order_cliques(raw, filled, priority), fill, order)
    return tree.cliques == engine.tree.cliques and tree.fill_edges == engine.tree.fill_edges


def _units(rec: Recorder, seconds: float):
    start = time.perf_counter()
    unit = 0
    while True:
        rec.start_unit(unit)
        yield unit
        unit += 1
        # Stop once another unit of the mean length so far would overrun.
        elapsed = time.perf_counter() - start
        if unit >= MIN_UNITS and elapsed * (unit + 1) / unit > seconds:
            break
    if rec.tracer is not None:
        rec.tracer.active = False
    rec.counting = False
    rec.mark_rss()


# -- build -------------------------------------------------------------------

def _network_text(seed: int, family: str, size: int) -> str:
    if family == "dag":
        return netgen.windowed_dag(seed, size)
    if family == "chain":
        return netgen.chain(seed, size)
    if family == "star":
        return netgen.star(seed, size)
    return netgen.asia()


def _marginal_reference(family: str, bn: bq.BayesianNetwork, name: str) -> np.ndarray:
    if family == "dag":
        return refs.WindowedDag(bn, bn.names, netgen.WINDOW).sweep({}).conditional([name])
    if family == "chain":
        return refs.chain_marginals(bn, bn.names)[bn.declaration_index(name)]
    if family == "star":
        if name == "C":
            return bn.cpt("C").values
        return refs.star_leaf_marginal(bn, "C", name)
    return bq.oracle_query(bq.enumerate_joint(bn), [name]).values


def run_build(seed: int, seconds: float, rec: Recorder) -> None:
    """Set up every network; validate each with its first and last marginal."""
    texts = {label: _network_text(seed, family, size) for label, family, size in BUILD_NETWORKS}
    answers: dict[tuple[str, str], list[np.ndarray]] = defaultdict(list)
    for _unit in _units(rec, seconds):
        for label, _family, _size in BUILD_NETWORKS:
            engine = rec.build(label, texts[label])
            if engine is None:
                continue
            names = engine.bn.names
            for name in (names[0], names[-1]):
                ok, answer = rec.call("query", engine, ask, expr([name]))
                if ok:
                    answers[label, name].append(answer)
            engine = None
    families = {label: family for label, family, _size in BUILD_NETWORKS}
    parsed = {}
    for (label, name), got in answers.items():
        bn = parsed.setdefault(label, bq.parse_network(texts[label]))
        reference = _marginal_reference(families[label], bn, name)
        for answer in got:
            rec.check("query", answer, reference)


# -- query-mix ---------------------------------------------------------------

def query_pool(seed: int, names, window: int = netgen.WINDOW):
    """POOL_SIZE distinct query expressions and a Zipf-popularity stream."""
    rng = _rng(seed, 1)
    n = len(names)
    pool: list[str] = []
    scopes: list[tuple[int, ...]] = []
    seen: set[str] = set()
    draws = 0  # a repeated expression passes its turn to the next shape
    while len(pool) < POOL_SIZE:
        far, k, conditioned = QUERY_SHAPES[draws % len(QUERY_SHAPES)]
        if far:
            idx = sorted(int(i) for i in rng.choice(n, size=2, replace=False))
            if idx[1] - idx[0] < n // 4:
                continue
        else:
            lo = int(rng.integers(0, n - window))
            idx = sorted(lo + int(i) for i in rng.choice(window, size=k, replace=False))
        vs = [names[i] for i in idx]
        given = [vs.pop(int(rng.integers(0, len(vs))))] if conditioned else []
        text = expr(vs, given)
        draws += 1
        if text not in seen:
            seen.add(text)
            pool.append(text)
            scopes.append(tuple(idx))
    weights = np.arange(1, POOL_SIZE + 1, dtype=float) ** -ZIPF_EXPONENT
    stream = rng.choice(POOL_SIZE, size=QUERIES_PER_UNIT, p=weights / weights.sum())
    return pool, scopes, [int(i) for i in stream]


def run_query_mix(seed: int, seconds: float, rec: Recorder) -> None:
    """Fresh engine per unit, then the same read-only query stream."""
    text = netgen.windowed_dag(seed, QUERY_MIX_VARS)
    bn = bq.parse_network(text)
    pool, scopes, stream = query_pool(seed, bn.names)
    first: dict[int, np.ndarray] = {}
    seen = Counter()
    for _unit in _units(rec, seconds):
        engine = rec.build(f"dag{QUERY_MIX_VARS}", text)
        if engine is None:
            continue
        for i in stream:
            ok, answer = rec.call("query", engine, ask, pool[i])
            if not ok:
                continue
            if i not in first:
                first[i] = answer
            elif not np.array_equal(answer, first[i]):
                rec.wrong["query (differs from its first answer)"] += 1
                continue
            seen[i] += 1
        engine = None
    dag = refs.WindowedDag(bn, bn.names, netgen.WINDOW)
    prior = dag.sweep({})
    uncached = bq.QueryEngine(bn, cache_enabled=False)
    for i, answer in first.items():
        if scopes[i][-1] - scopes[i][0] <= netgen.WINDOW:
            parsed = bq.parse_query(pool[i])
            reference = prior.conditional(parsed.targets, parsed.given)
        else:
            reference = ask(uncached, pool[i])
        rec.check("query", answer, reference, times=seen[i])


# -- evidence-churn ----------------------------------------------------------

def _strata(rng, n: int, k: int) -> list[range]:
    """k equal slices of range(n), in random order."""
    bounds = [i * n // k for i in range(k + 1)]
    return [range(bounds[i], bounds[i + 1]) for i in rng.permutation(k)]


def session_plan(seed: int, session: int, leaves, dag_names, window: int = netgen.WINDOW):
    """Steps of one diagnosis session: (kind, *arguments), kind one of
    observe, class, query, whatif and retract.

    Findings and DAG query pairs take one position from each of equal slices
    of their variables.  A query's cost grows with its clique's depth, so
    with positions drawn freely the median query of one seed's 60 differed
    from another's by up to a third.
    """
    rng = _rng(seed, 2, session)
    half = FINDINGS_PER_SESSION // 2
    findings = [(names[int(rng.choice(part))], int(rng.integers(0, 2)))
                for names, k in ((leaves, half), (dag_names, FINDINGS_PER_SESSION - half))
                for part in _strata(rng, len(names), k)]
    findings = [findings[int(i)] for i in rng.permutation(len(findings))]
    pair_strata = _strata(rng, len(dag_names) - 1, FINDINGS_PER_SESSION)
    observed: set[str] = set()

    def local_pair(part=range(len(dag_names) - 1)):
        for a in rng.permutation(part) if len(part) else ():
            b = int(a) + int(rng.integers(1, min(window, len(dag_names) - 1 - a) + 1))
            if dag_names[a] not in observed and dag_names[b] not in observed:
                return dag_names[a], dag_names[b]
        return local_pair()

    steps = []
    for k, (name, state) in enumerate(findings, start=1):
        steps.append(("observe", name, state))
        observed.add(name)
        steps.append(("class", expr(["C"])))
        steps.append(("query", expr(local_pair(pair_strata[k - 1]))))
        if k % WHATIF_EVERY == 0:
            if (k // WHATIF_EVERY) % 2:
                free = [leaf for leaf in leaves if leaf not in observed]
                leaf = free[int(rng.integers(0, len(free)))]
                steps.append(("whatif", expr(["C"], transient=[(leaf, int(rng.integers(0, 2)))])))
            else:
                a, b = local_pair()
                steps.append(("whatif", expr([a], transient=[(b, int(rng.integers(0, 2)))])))
    order = findings[::-1] if session % 2 == 0 else findings
    steps += [("retract", name) for name, _state in order]
    return steps


def run_evidence_churn(seed: int, seconds: float, rec: Recorder) -> None:
    """Fresh engine per unit, then SESSIONS_PER_UNIT new diagnosis sessions.

    Unit u runs sessions u*SESSIONS_PER_UNIT onwards, so a run's medians
    rest on every session it reached and not on one pair of them: the cost
    of a session swings by a tenth or more with the findings drawn.
    """
    text = netgen.forest(seed, CHURN_LEAVES, CHURN_DAG_VARS)
    bn = bq.parse_network(text)
    leaves = [n for n in bn.names if n.startswith("L")]
    dag_names = [n for n in bn.names if n.startswith("D")]
    records = []  # (evidence, expression, answer) of every answered query
    for unit in _units(rec, seconds):
        engine = rec.build("forest", text)
        if engine is None:
            continue
        for session in range(unit * SESSIONS_PER_UNIT, (unit + 1) * SESSIONS_PER_UNIT):
            busy = rec.busy[unit]
            for kind, *args in session_plan(seed, session, leaves, dag_names):
                fn = {"observe": observe, "retract": retract}.get(kind, ask)
                ok, answer = rec.call(kind, engine, fn, *args)
                if ok and kind in QUERY_KINDS:
                    records.append((engine.evidence, args[0], answer))
            rec.session[unit].append(rec.busy[unit] - busy)
        engine = None
    dag = refs.WindowedDag(bn, dag_names, netgen.WINDOW)
    sweep_key, sweep = None, None
    for evidence, text_, answer in records:
        parsed = bq.parse_query(text_)
        evidence = dict(evidence)
        evidence.update((n, int(s)) for n, s in parsed.transient_evidence)
        if parsed.targets == ("C",):
            star_ev = {n: s for n, s in evidence.items() if n.startswith("L")}
            reference = refs.star_class_posterior(bn, "C", star_ev)
        else:
            key = frozenset((n, s) for n, s in evidence.items() if n.startswith("D"))
            if key != sweep_key:
                sweep_key, sweep = key, dag.sweep(dict(key))
            reference = sweep.conditional(parsed.targets, parsed.given)
        kind = "whatif" if parsed.transient_evidence else (
            "class" if parsed.targets == ("C",) else "query")
        rec.check(kind, answer, reference)


WORKLOADS = {
    "build": run_build,
    "query-mix": run_query_mix,
    "evidence-churn": run_evidence_churn,
}
