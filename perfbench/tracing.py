"""Spans around the package's public calls, recorded from the benchmark side.

``Tracer.install`` rebinds each public function at the name its caller
looks it up by (``bnquery.cliquetree.min_fill_order`` is what
``compile_network`` calls, for instance) and wraps the engine's public
methods, so one ``QueryEngine(bn)`` yields a span per build stage without
any change to the package.  A span is (operation id, span id, parent span
id, name, start, end); every span of one benchmark operation (a set-up, a
query, an observe...) carries that operation's id.  Spans stay in memory
until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import bnquery

# The package re-exports the function ``preprocess`` over its submodule's
# name, so the modules are looked up by their full names.
_cliquetree = importlib.import_module("bnquery.cliquetree")
_engine = importlib.import_module("bnquery.engine")
_preprocess = importlib.import_module("bnquery.preprocess")

#: (owner, attribute, span name).  Module attributes are the global names
#: the package's own callers resolve at call time.
WRAPPED = (
    (bnquery, "parse_network", "parse_network"),
    (bnquery, "parse_query", "parse_query"),
    (_cliquetree, "moralize", "moralize"),
    (_cliquetree, "min_fill_order", "min_fill_order"),
    (_cliquetree, "triangulate", "triangulate"),
    (_cliquetree, "find_cliques", "find_cliques"),
    (_cliquetree, "mcs_numbering", "mcs_numbering"),
    (_cliquetree, "order_cliques", "order_cliques"),
    (bnquery.CliqueTree, "__init__", "CliqueTree"),
    (_engine, "compile_network", "compile_network"),
    (_engine, "preprocess", "preprocess"),
    (_preprocess, "assign_cpts", "assign_cpts"),
    (_preprocess, "compute_potentials", "compute_potentials"),
    (_preprocess, "collect_conditionals", "collect_conditionals"),
    (_preprocess, "distribute_marginals", "distribute_marginals"),
    (bnquery.QueryEngine, "__init__", "QueryEngine"),
    (bnquery.QueryEngine, "query_joint", "query_joint"),
    (bnquery.QueryEngine, "query_conditional", "query_conditional"),
    (bnquery.QueryEngine, "observe", "observe"),
    (bnquery.QueryEngine, "retract", "retract"),
)


class Tracer:
    """Span recorder; records only while ``active`` and inside an operation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.ops: list[tuple[str, str]] = []  # op id -> (kind, key)
        self.active = False
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        """Wrap every entry of WRAPPED for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in WRAPPED:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def operation(self, kind: str, key: str = ""):
        """Root span of one benchmark operation; no-op while inactive."""
        if not self.active:
            yield
            return
        self.ops.append((kind, key))
        with self._span(kind):
            yield

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or not self._stack:
                return fn(*args, **kwargs)
            with self._span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (len(self.ops) - 1, sid, parent, name, start, end)

    def self_times(self):
        """Yield (op id, span name, self seconds) for every span."""
        covered: dict[int, float] = defaultdict(float)
        for _op, _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for op, sid, _parent, name, start, end in self.spans:
            yield op, name, (end - start) - covered[sid]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                kind, key = self.ops[op]
                fh.write(json.dumps({
                    "op": op, "kind": kind, "key": key, "span": sid,
                    "parent": parent, "name": name, "start": start, "end": end,
                }) + "\n")
