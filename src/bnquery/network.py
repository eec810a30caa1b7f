"""Discrete Bayesian networks: variables, parent sets, one CPT per variable."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidNetworkError, MissingVariableError
from .factors import Factor, Variable

CPT_ROW_TOLERANCE = 1e-9


class BayesianNetwork:
    """An acyclic directed graph of discrete variables with tabulated CPTs.

    Each CPT is a factor over ``[*parents, child]`` (parents in their listed
    order), so its flat layout enumerates parent assignments row by row with
    the child index varying fastest.  Every child row must sum to 1 within
    ``CPT_ROW_TOLERANCE``; callers with sloppier input should renormalize
    before construction (the file loader does).
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        parents: Mapping[str, Sequence[str]],
        cpts: Mapping[str, Factor],
    ):
        self.variables: tuple[Variable, ...] = tuple(variables)
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise InvalidNetworkError(f"duplicate variable names: {names}")
        self._by_name = {v.name: v for v in self.variables}
        self._index = {v.name: i for i, v in enumerate(self.variables)}

        self.parents: dict[str, tuple[str, ...]] = {}
        for name in names:
            plist = tuple(parents.get(name, ()))
            for p in plist:
                if p not in self._by_name:
                    raise InvalidNetworkError(
                        f"{name!r} lists unknown parent {p!r}"
                    )
            if len(set(plist)) != len(plist):
                raise InvalidNetworkError(f"{name!r} lists a parent twice")
            if name in plist:
                raise InvalidNetworkError(f"{name!r} cannot be its own parent")
            # the declared names, so equal names of another str type never mix in
            self.parents[name] = tuple(self._by_name[p].name for p in plist)
        unknown = set(parents) - set(names)
        if unknown:
            raise InvalidNetworkError(f"parents given for unknown variables {sorted(unknown)}")

        self._check_acyclic()

        self.cpts: dict[str, Factor] = {}
        problem = None
        for name in names:
            problem = self._cpt_problem(name, cpts)
            if problem is not None:
                break
            self.cpts[name] = cpts[name]
        # a bad row in a CPT declared before the first bad scope is reported first
        self._check_rows()
        if problem is not None:
            raise InvalidNetworkError(problem)
        unknown = set(cpts) - set(names)
        if unknown:
            raise InvalidNetworkError(f"CPTs given for unknown variables {sorted(unknown)}")

    def _check_acyclic(self) -> None:
        children: dict[str, list[str]] = {v.name: [] for v in self.variables}
        pending = {name: len(ps) for name, ps in self.parents.items()}
        for name, ps in self.parents.items():
            for p in ps:
                children[p].append(name)
        queue = [v.name for v in self.variables if pending[v.name] == 0]
        for name in queue:  # the loop reaches what it appends
            for c in children[name]:
                pending[c] -= 1
                if pending[c] == 0:
                    queue.append(c)
        if len(queue) != len(self.variables):
            stuck = sorted(n for n, k in pending.items() if k > 0)
            raise InvalidNetworkError(f"parent relation is cyclic (involves {stuck})")

    def _cpt_problem(self, name: str, cpts: Mapping[str, Factor]) -> str | None:
        """Why ``cpts`` cannot give ``name`` its CPT, or None if it can."""
        if name not in cpts:
            return f"no CPT for variable {name!r}"
        expected = tuple(self._by_name[p] for p in self.parents[name])
        expected += (self._by_name[name],)
        if cpts[name].scope != expected:
            return (
                f"CPT for {name!r} must have scope "
                f"{[v.name for v in expected]}, got {list(cpts[name].names)}"
            )
        return None

    def _check_rows(self) -> None:
        """Every row of every accepted CPT sums to 1 within the tolerance.

        The rows of the CPTs whose child has ``k`` states are stacked and
        summed by one reduction; the first failing CPT in declaration
        order is named.
        """
        stacks: dict[int, list[str]] = {}
        for name in self.cpts:
            stacks.setdefault(self._by_name[name].cardinality, []).append(name)
        failing = []
        for card, names in stacks.items():
            tables = [self.cpts[name].values.reshape(-1, card) for name in names]
            with np.errstate(over="ignore"):  # an infinite sum fails the check
                sums = np.concatenate(tables).sum(axis=1)
            bad = np.flatnonzero(np.abs(sums - 1.0) > CPT_ROW_TOLERANCE)
            if bad.size:
                ends = np.cumsum([t.shape[0] for t in tables])
                failing.append(names[int(np.searchsorted(ends, bad[0], side="right"))])
        if failing:
            name = min(failing, key=self._index.__getitem__)
            with np.errstate(over="ignore"):
                row_sums = self.cpts[name].values.sum(axis=-1)
            worst = float(np.max(np.abs(row_sums - 1.0)))
            raise InvalidNetworkError(
                f"CPT rows for {name!r} deviate from 1 by up to {worst:.3g}"
            )

    # -- lookups ----------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def var(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise MissingVariableError(f"unknown variable {name!r}") from None

    def declaration_index(self, name: str) -> int:
        self.var(name)
        return self._index[name]

    def cpt(self, name: str) -> Factor:
        self.var(name)
        return self.cpts[name]

    def family(self, name: str) -> tuple[str, ...]:
        """The variable together with its parents."""
        self.var(name)
        return self.parents[name] + (name,)

    def state_index(self, name: str, label: str) -> int:
        return self.var(name).state_index(label)

    def state_space_size(self) -> int:
        size = 1
        for v in self.variables:
            size *= v.cardinality
        return size

    def __repr__(self):
        return f"BayesianNetwork({len(self.variables)} variables)"
