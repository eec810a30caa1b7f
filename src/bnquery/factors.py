"""Discrete variables and dense factor tables.

A factor stores its table as a float64 ndarray whose shape is the tuple of
scope cardinalities, in C (row-major) order, so the flattened view lists
cells with the *last* scope variable varying fastest.  That layout is the
contract for every flat probability list in this package (CPT blocks in
network files, golden tables in tests).

Factors are immutable: the backing array is marked read-only and every
operation returns a new factor, so factors can be shared freely between
any number of readers.

A factor is validated once, where it enters the system: the public
``Factor(...)`` constructor checks the scope for duplicate names and the
values for shape, finiteness and sign, and networks built by hand pass
their tables through it.  The file loader checks every number of a
document in bulk, with errors that name the line, and wraps the checked
tables with ``Factor._trusted``.  The primitives below build
their results through the private ``Factor._trusted``, which skips those
checks: a scope derived from a duplicate-free one stays duplicate-free,
and slicing, transposing, products, sums and normalization of
nonnegative tables stay nonnegative.  Finiteness is the one property a
result can lose, so ``multiply`` and ``sum_out``, whose arithmetic can
overflow finite inputs to infinity, keep that guard.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadStateError, IncompatibleVariableError, InvalidFactorError, MissingVariableError
)


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with an ordered tuple of state labels."""

    name: str
    states: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise InvalidFactorError("variable name must be non-empty")
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if len(states) < 1:
            raise InvalidFactorError(f"variable {self.name!r} needs at least one state")
        if len(set(states)) != len(states):
            raise InvalidFactorError(f"variable {self.name!r} has duplicate state labels")

    @property
    def cardinality(self) -> int:
        return len(self.states)

    def state_index(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise BadStateError(
                f"{self.name!r} has no state {label!r}; states are {list(self.states)}"
            ) from None


@dataclass
class OpCounters:
    """Tallies of the scalar work done by the three table primitives.

    multiplications and summations count scalar operations (one per product
    cell, one per accumulated addition); substitutions count cells retained
    by a slice.  cache_hits/cache_misses are engine-level lookup tallies.
    """

    multiplications: int = 0
    summations: int = 0
    substitutions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def snapshot(self) -> "OpCounters":
        return replace(self)

    def reset(self) -> None:
        self.multiplications = 0
        self.summations = 0
        self.substitutions = 0
        self.cache_hits = 0
        self.cache_misses = 0


class Factor:
    """A dense nonnegative table over an ordered scope of variables."""

    __slots__ = ("scope", "names", "values")

    scope: tuple[Variable, ...]
    names: tuple[str, ...]
    values: np.ndarray

    def __init__(self, scope: Sequence[Variable], values):
        scope = tuple(scope)
        names = tuple(v.name for v in scope)
        if len(set(names)) != len(names):
            raise InvalidFactorError(f"duplicate variables in scope: {list(names)}")
        shape = tuple(v.cardinality for v in scope)
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != shape:
            expected = int(np.prod(shape, dtype=np.int64)) if shape else 1
            if arr.size != expected:
                raise InvalidFactorError(
                    f"need {expected} values for scope {list(names)}, got {arr.size}"
                )
            arr = arr.reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise InvalidFactorError("factor values must be finite")
        if arr.size and arr.min() < 0:
            raise InvalidFactorError("factor values must be nonnegative")
        arr.setflags(write=False)
        _set_scope(self, scope)
        _set_names(self, names)
        _set_values(self, arr)

    @classmethod
    def _trusted(
        cls, scope: tuple[Variable, ...], names: tuple[str, ...], values: np.ndarray
    ) -> "Factor":
        """A result built from validated factors: no checks, same invariants.

        ``values`` must be a float64 ndarray shaped by ``scope``, and
        ``names`` the scope's names.  The array is marked read-only.
        """
        f = object.__new__(cls)
        values.setflags(write=False)
        _set_scope(f, scope)
        _set_names(f, names)
        _set_values(f, values)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("Factor is immutable")

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def flat(self) -> np.ndarray:
        """Row-major cell list; the last scope variable varies fastest."""
        return self.values.reshape(-1)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MissingVariableError(
                f"{name!r} not in scope {list(self.names)}"
            ) from None

    def value_at(self, assignment: Mapping[str, int]) -> float:
        """Cell value at a (possibly wider) assignment of state indexes."""
        idx = []
        for v in self.scope:
            if v.name not in assignment:
                raise MissingVariableError(f"assignment does not bind {v.name!r}")
            idx.append(_checked_state(v, assignment[v.name]))
        return float(self.values[tuple(idx)])

    def total(self) -> float:
        return float(self.values.sum())

    def __repr__(self):
        dims = ", ".join(f"{v.name}:{v.cardinality}" for v in self.scope)
        return f"Factor({dims or 'scalar'})"


# slot writers that bypass the immutability guard in Factor.__setattr__
_set_scope = Factor.scope.__set__
_set_names = Factor.names.__set__
_set_values = Factor.values.__set__


def unit_factor() -> Factor:
    """The empty-scope factor holding 1.0 (the multiplicative identity)."""
    return Factor((), [1.0])


def _checked_state(var: Variable, state) -> int:
    """``state`` as an int, if it is an integer that indexes a state of ``var``.

    A float or other non-integer raises rather than being truncated.
    """
    try:
        index = operator.index(state)
    except TypeError:
        raise BadStateError(
            f"state {state!r} for {var.name!r} is not an integer index"
        ) from None
    if not 0 <= index < var.cardinality:
        raise BadStateError(
            f"state {state} out of range for {var.name!r} (cardinality {var.cardinality})"
        )
    return index


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise InvalidFactorError("factor values must be finite")


def _aligned(
    values: np.ndarray, names: Sequence[str], pos: Mapping[str, int], width: int
) -> np.ndarray:
    """View of `values` broadcastable against an array of `width` axes.

    ``pos`` maps each of ``names`` to its axis in the target scope.
    """
    slots = [pos[n] for n in names]
    order = sorted(range(len(slots)), key=slots.__getitem__)
    if order != list(range(len(slots))):
        values = values.transpose(order)
    shape = [1] * width
    for axis, i in enumerate(order):
        shape[slots[i]] = values.shape[axis]
    return values.reshape(shape)


def multiply(f: Factor, g: Factor, counters: OpCounters | None = None) -> Factor:
    """Pointwise product; scope is f's variables then g's new ones.

    Shared variable names must refer to identical variables.
    """
    pos = {n: i for i, n in enumerate(f.names)}
    extra = []
    for v in g.scope:
        i = pos.get(v.name)
        if i is None:
            pos[v.name] = len(pos)
            extra.append(v)
        elif f.scope[i] != v:
            raise IncompatibleVariableError(
                f"variable {v.name!r} has conflicting definitions"
            )
    fv = f.values
    if extra:
        fv = fv.reshape(fv.shape + (1,) * len(extra))
    out = np.asarray(fv * _aligned(g.values, g.names, pos, len(pos)))
    if counters is not None:
        counters.multiplications += out.size
    _check_finite(out)
    return Factor._trusted(
        f.scope + tuple(extra), f.names + tuple(v.name for v in extra), out
    )


def sum_out(f: Factor, names, counters: OpCounters | None = None) -> Factor:
    """Marginalize the named variables away, preserving remaining order."""
    names = set(names)
    if not names.issubset(f.names):
        raise MissingVariableError(
            f"cannot sum out {sorted(names - set(f.names))}; scope is {list(f.names)}"
        )
    if not names:
        return Factor._trusted(f.scope, f.names, f.values)
    axes = tuple(i for i, n in enumerate(f.names) if n in names)
    out = np.asarray(f.values.sum(axis=axes))
    if counters is not None:
        counters.summations += f.values.size - out.size
    _check_finite(out)
    keep = [i for i, n in enumerate(f.names) if n not in names]
    return Factor._trusted(
        tuple(f.scope[i] for i in keep), tuple(f.names[i] for i in keep), out
    )


def substitute(f: Factor, name: str, state: int, counters: OpCounters | None = None) -> Factor:
    """Slice the table at name=state, eliminating that dimension."""
    axis = f.axis(name)
    state = _checked_state(f.scope[axis], state)
    out = np.asarray(np.take(f.values, state, axis=axis))
    if counters is not None:
        counters.substitutions += out.size
    return Factor._trusted(
        f.scope[:axis] + f.scope[axis + 1:], f.names[:axis] + f.names[axis + 1:], out
    )


def normalize_conditional(f: Factor, targets) -> Factor:
    """Rescale so the cells over `targets` sum to 1 for each context.

    Groups with zero mass are left all-zero (the 0/0 := 0 convention for
    impossible contexts).
    """
    targets = set(targets)
    if not targets.issubset(f.names):
        raise MissingVariableError(
            f"cannot normalize over {sorted(targets - set(f.names))}; "
            f"scope is {list(f.names)}"
        )
    axes = tuple(i for i, n in enumerate(f.names) if n in targets)
    sums = f.values.sum(axis=axes, keepdims=True)
    out = np.divide(
        f.values,
        sums,
        out=np.zeros_like(f.values),
        where=sums != 0,
    )
    return Factor._trusted(f.scope, f.names, out)


def reorder_scope(f: Factor, names: Sequence[str]) -> Factor:
    """Transpose the table so its scope follows `names` (same variable set)."""
    names = tuple(names)
    if names == f.names:
        return f
    if sorted(names) != sorted(f.names):
        raise MissingVariableError(
            f"cannot reorder {list(f.names)} as {list(names)}"
        )
    current = {n: i for i, n in enumerate(f.names)}
    perm = [current[n] for n in names]
    return Factor._trusted(
        tuple(f.scope[i] for i in perm),
        tuple(f.names[i] for i in perm),
        f.values.transpose(perm),
    )
