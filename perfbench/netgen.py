"""Seeded network generators for the benchmark workloads.

Each generator returns ``.net`` text written by ``dump_network``; the same
seed gives the same bytes.  The seed draws the CPT tables.  The structure
(parents and cardinalities) is drawn from a fixed key per family and size,
because on this engine the cost of a workload is set by the clique tree's
shape: with the structure drawn from the seed too, the scalar work of one
query-mix pass varied by a factor of 2.5 between seeds, which would swamp
any change a benchmark run is meant to show.  The seed still varies what a
user of one network varies: its tables, queries and evidence.

Generators are keyed by (seed, family, size), so one network never depends
on which others were generated before it.  Variable names carry four
digits (``V0042``).  All CPT cells are drawn from [0.05, 1) before row
normalization, so no cell is zero and no observation is impossible.
"""

from __future__ import annotations

import zlib

import numpy as np

from bnquery import BayesianNetwork, Factor, Variable, asia_path, dump_network

#: Parents of a windowed-DAG variable are drawn from the WINDOW variables
#: declared just before it.
WINDOW = 6
MAX_PARENTS = 3
PARENT_COUNT_WEIGHTS = (0.6, 0.3, 0.1)  # of 1, 2 and 3 parents
CARDINALITIES = (2, 4)  # inclusive range
STRUCTURE_KEY = 0


def _rng(seed: int, family: str, size: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(family.encode()), size])


def _states(card: int) -> tuple[str, ...]:
    return tuple(str(s) for s in range(card))


def _rows(rng: np.random.Generator, n_rows: int, card: int) -> np.ndarray:
    rows = rng.uniform(0.05, 1.0, size=(n_rows, card))
    return rows / rows.sum(axis=1, keepdims=True)


class _Builder:
    """Accumulates variables, parents and CPTs in declaration order."""

    def __init__(self):
        self.variables: list[Variable] = []
        self.by_name: dict[str, Variable] = {}
        self.parents: dict[str, tuple[str, ...]] = {}
        self.cpts: dict[str, Factor] = {}

    def add(self, rng, name: str, card: int, parents=()) -> None:
        var = Variable(name, _states(card))
        scope = tuple(self.by_name[p] for p in parents) + (var,)
        n_rows = 1
        for p in parents:
            n_rows *= self.by_name[p].cardinality
        table = _rows(rng, n_rows, card).reshape([v.cardinality for v in scope])
        self.variables.append(var)
        self.by_name[name] = var
        self.parents[name] = tuple(parents)
        self.cpts[name] = Factor(scope, table)

    def text(self) -> str:
        return dump_network(BayesianNetwork(self.variables, self.parents, self.cpts))


def _add_windowed_dag(b: _Builder, rng, n: int, prefix: str) -> None:
    shape = _rng(STRUCTURE_KEY, "dag", n)
    names = [f"{prefix}{i:04d}" for i in range(n)]
    lo, hi = CARDINALITIES
    for i, name in enumerate(names):
        pool = names[max(0, i - WINDOW):i]
        k = min(len(pool), 1 + int(shape.choice(MAX_PARENTS, p=PARENT_COUNT_WEIGHTS)))
        picks = sorted(shape.choice(len(pool), size=k, replace=False)) if k else []
        card = int(shape.integers(lo, hi + 1))
        b.add(rng, name, card, [pool[j] for j in picks])


def _add_star(b: _Builder, rng, leaves: int) -> None:
    shape = _rng(STRUCTURE_KEY, "star", leaves)
    b.add(rng, "C", 2)
    for i in range(leaves):
        b.add(rng, f"L{i:04d}", int(shape.integers(2, 4)), ["C"])


def windowed_dag(seed: int, n: int) -> str:
    """V0000..: each variable has 1-3 parents among the 6 declared before it,
    and 2-4 states."""
    b = _Builder()
    _add_windowed_dag(b, _rng(seed, "dag", n), n, "V")
    return b.text()


def chain(seed: int, n: int) -> str:
    """N0000 -> N0001 -> ... -> N{n-1}, binary."""
    rng = _rng(seed, "chain", n)
    b = _Builder()
    for i in range(n):
        b.add(rng, f"N{i:04d}", 2, [f"N{i - 1:04d}"] if i else [])
    return b.text()


def star(seed: int, leaves: int) -> str:
    """Naive Bayes: binary class C with leaves L0000.. of 2-3 states."""
    b = _Builder()
    _add_star(b, _rng(seed, "star", leaves), leaves)
    return b.text()


def forest(seed: int, leaves: int, dag_vars: int) -> str:
    """Two components: a star (C, L....) and a windowed DAG (D....)."""
    rng = _rng(seed, "forest", leaves * 10_000 + dag_vars)
    b = _Builder()
    _add_star(b, rng, leaves)
    _add_windowed_dag(b, rng, dag_vars, "D")
    return b.text()


def asia() -> str:
    """The bundled 8-variable chest-clinic network."""
    with open(asia_path()) as fh:
        return fh.read()
