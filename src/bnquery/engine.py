"""Goal-directed query answering over a preprocessed clique tree.

A query for a set of target variables visits the owner of each target
(the clique holding it in its residual) and the owner's ancestors, the
same walk an evidence refresh makes, and answers them children first.  A
visited clique is asked for the targets whose owners lie in its subtree:
those in its residual stay put, the others are requested from its visited
children (a child with no targets below it is never asked), and the child
answers are multiplied with the clique's stored residual conditional
before the unwanted residual variables are summed away.  A per-clique
answer is cached under (clique, target set), so repeated and overlapping
queries reuse earlier work, and a hit answers its clique's whole subtree.
The one answer not cached covers all the targets of a query with two or
more: such answers sit at the targets' common ancestors up to the root,
and their reader, a repeat of the same query, is answered by the
whole-query memo first.

Each clique has one ``CliqueState`` record in two maps: ``prep`` holds
the pristine records from preprocessing, and the live map the records the
current evidence gives.  Observing and retracting a finding are lazy: a
write checks its arguments, updates the evidence, marks the variable
pending and clears the whole-query memo, and it applies at the next read
of live state (a query that misses the memo, ``stored_conditional`` or
``evidence_probability``).  That read runs one refresh over every pending
variable.  The pristine potentials of the cliques that hold one are
sliced again by the current evidence, and ``preprocess.collect_step`` is
rerun once over those cliques and their ancestors, children first, each
writing a new live record.  Every table, a root's included, thus stays
P(residual | separator, evidence below), and a root's message holds its
component's mass P(evidence).  A live record is a function of the current
evidence alone, so a run of writes costs one refresh and leaves the
tables an eager refresh after each write would.  A clique with no
evidence left in its subtree takes back its pristine record.  Only cache
entries keyed on a refreshed clique are dropped; the others depend on no
table that changed.  The memo holds the product of the per-component
answers, P(targets | evidence), which is what a conditional query
normalizes; ``query_joint`` multiplies in the mass of every component
holding evidence on the way out, so it returns unnormalized
P(targets, evidence).

An engine instance is strictly single-threaded: queries may not overlap
observe/retract calls, and the caches are plain dicts.  The factor tables
themselves are immutable and may be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .cliquetree import CliqueTree, compile_network
from .errors import BadStateError, EvidenceError, QueryError
from .factors import (
    Factor,
    OpCounters,
    multiply,
    normalize_conditional,
    reorder_scope,
    substitute,
    sum_out,
)
from .network import BayesianNetwork
from .preprocess import CliqueState, collect_step, preprocess


@dataclass(frozen=True)
class Query:
    """A parsed conditional-probability request."""

    targets: tuple[str, ...]
    given: tuple[str, ...] = ()
    transient_evidence: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class TraceEvent:
    """One clique visit: what arrived, what was forwarded, how it resolved.

    ``resolution`` is "computed", "stored" (answered directly from the
    clique's own conditional), "cache" (per-clique cache hit), or "memo"
    (whole-query hit; clique_id is None).
    """

    clique_id: int | None
    targets: tuple[str, ...]
    separator: tuple[str, ...]
    requests: tuple[tuple[int, tuple[str, ...], tuple[str, ...]], ...]
    resolution: str


class QueryEngine:
    """Evidence-incremental exact inference for one Bayesian network."""

    def __init__(
        self,
        bn: BayesianNetwork,
        *,
        elimination_order: Sequence[str] | None = None,
        cache_enabled: bool = True,
    ):
        self.bn = bn
        self.tree: CliqueTree = compile_network(bn, elimination_order)
        self.prep: dict[int, CliqueState] = preprocess(bn, self.tree)
        self.cache_enabled = cache_enabled
        self._live: dict[int, CliqueState] = dict(self.prep)
        self._evidence: dict[str, int] = {}
        self._applied: dict[str, int] = {}  # the evidence the live tables hold
        self._pending: set[str] = set()  # written since the last refresh
        self._cache: dict[tuple[int, frozenset[str]], Factor] = {}
        self._memo: dict[frozenset[str], Factor] = {}
        self._counters = OpCounters()

    # -- introspection ------------------------------------------------------

    @property
    def evidence(self) -> dict[str, int]:
        return dict(self._evidence)

    def stored_conditional(self, cid: int) -> Factor:
        self._refresh()
        return self._live[cid].conditional

    def op_counters(self) -> OpCounters:
        return self._counters.snapshot()

    def reset_counters(self) -> None:
        self._counters.reset()

    def cache_size(self) -> int:
        """Per-clique cache entries.  Pending writes are not applied first, so
        this may count entries that the next refresh drops."""
        return len(self._cache)

    # -- queries ------------------------------------------------------------

    def query_joint(
        self, targets: Sequence[str], *, trace: list[TraceEvent] | None = None
    ) -> Factor:
        """Unnormalized P(targets, evidence) over the requested scope order.

        With no evidence the answer is the memoized table itself.
        """
        answer = self._posterior(self._check_targets(targets), trace)
        # a memo hit implies no pending write, so the live messages are current
        for root in self._evidence_roots():
            answer = multiply(answer, self._live[root].message, self._counters)
        return answer

    def _posterior(
        self, tg: tuple[str, ...], trace: list[TraceEvent] | None
    ) -> Factor:
        """P(targets | evidence) over the order ``tg``, memoized as returned."""
        key = frozenset(tg)
        if self.cache_enabled and key in self._memo:
            self._counters.cache_hits += 1
            if trace is not None:
                trace.append(TraceEvent(None, tg, (), (), "memo"))
            return reorder_scope(self._memo[key], tg)
        if self.cache_enabled:
            self._counters.cache_misses += 1
        self._refresh()

        answer = reorder_scope(self._resolve(tg, trace), tg)
        # Impossible evidence makes every answer 0 (0/0 := 0).  A component
        # holding targets has zeroed its own tables; one holding only
        # evidence is not walked, so its mass is read here.
        if self._evidence and any(
            not self._live[r].message.total() for r in self._evidence_roots()
        ):
            zeros = np.zeros(answer.values.shape)
            answer = Factor._trusted(answer.scope, answer.names, zeros)
        if self.cache_enabled:
            self._memo[key] = answer
        return answer

    def query_conditional(
        self,
        targets: Sequence[str],
        given: Sequence[str] = (),
        transient_evidence: Sequence[tuple[str, int]] = (),
        *,
        trace: list[TraceEvent] | None = None,
    ) -> Factor:
        """P(targets | given, evidence), normalized over the targets.

        Transient evidence is asserted before the computation and retracted
        afterwards.  Contexts of the conditioning variables with zero mass
        yield all-zero columns.
        """
        tg = tuple(targets)
        gv = tuple(given)
        overlap = set(tg) & set(gv)
        if overlap:
            raise QueryError(f"targets and conditionals overlap on {sorted(overlap)}")
        bad = (set(tg) | set(gv)) & {name for name, _ in transient_evidence}
        if bad:
            raise QueryError(
                f"transient evidence on {sorted(bad)} conflicts with the query scope"
            )
        applied: list[str] = []
        try:
            for name, state in transient_evidence:
                fresh = name not in self._evidence
                self.observe(name, state)
                if fresh:
                    applied.append(name)
            joint = self._posterior(self._check_targets(tg + gv), trace)
            return normalize_conditional(joint, tg)
        finally:
            for name in reversed(applied):
                self.retract(name)

    def query(self, q: Query, *, trace: list[TraceEvent] | None = None) -> Factor:
        return self.query_conditional(
            q.targets, q.given, q.transient_evidence, trace=trace
        )

    def evidence_probability(self) -> float:
        """P(evidence): product of the evidence mass of each touched component."""
        self._refresh()
        mass = 1.0
        for root in self._evidence_roots():
            mass *= self._live[root].message.total()
        return mass

    def _evidence_roots(self) -> list[int]:
        """Roots of the tree components that hold a finding, in rank order."""
        tree = self.tree
        return sorted({tree.root_of[tree.owner[v]] for v in self._evidence})

    # -- evidence -----------------------------------------------------------

    def observe(self, name: str, state: int) -> None:
        """Assert name=state; the tables take it in at the next read.

        Re-observing the same state is a no-op; a different state is an
        error (retract first).  Errors raise here, before any state changes.
        """
        var = self.bn.var(name)
        if not 0 <= state < var.cardinality:
            raise BadStateError(
                f"state {state} out of range for {name!r} "
                f"(cardinality {var.cardinality})"
            )
        if name in self._evidence:
            if self._evidence[name] == state:
                return
            raise EvidenceError(
                f"{name!r} is already observed at state "
                f"{self._evidence[name]}; retract it before re-observing"
            )
        self._evidence[name] = state
        self._pending.add(name)
        self._memo.clear()

    def retract(self, name: str) -> None:
        """Withdraw an observation; the tables drop it at the next read."""
        if name not in self._evidence:
            raise EvidenceError(f"{name!r} is not observed")
        del self._evidence[name]
        self._pending.add(name)
        self._memo.clear()

    def _refresh(self) -> None:
        """Rerun the collect step, once, where the pending writes changed an input.

        The cliques holding a pending variable form a connected subtree
        topped by its owner, so their union plus the owners' ancestors is
        every clique whose record can change.  Each ancestor walk stops at a
        clique already walked, which keeps the gathering O(touched).
        """
        tree, prep, live, evidence = self.tree, self.prep, self._live, self._evidence
        applied = self._applied
        changed = [n for n in self._pending if evidence.get(n) != applied.get(n)]
        self._pending.clear()
        if not changed:
            return
        sliced: set[int] = set()
        walked: set[int] = set()
        for name in changed:
            sliced.update(tree.containing[name])
            for cid in _up_from(tree, tree.owner[name]):
                if cid in walked:
                    break
                walked.add(cid)
        touched = sliced | walked
        for cid in sorted(touched, reverse=True):
            st, clique, children = prep[cid], tree.cliques[cid], tree.children[cid]
            if cid in sliced:
                potential = st.potential
                for v in clique.members:
                    if v in evidence:
                        potential = substitute(potential, v, evidence[v], self._counters)
            else:
                potential = live[cid].potential
            if potential is st.potential and all(live[ch] is prep[ch] for ch in children):
                live[cid] = st
            else:
                messages = [live[ch].message for ch in children]  # ascending rank
                live[cid] = collect_step(clique, potential, messages, self._counters)
        self._applied = dict(evidence)
        self._cache = {k: f for k, f in self._cache.items() if k[0] not in touched}

    # -- decomposition ------------------------------------------------------

    def _resolve(self, tg: tuple[str, ...], trace: list[TraceEvent] | None) -> Factor:
        """P(targets | evidence), a product over the components holding targets.

        A query visits the owner of each target and the owner's ancestors,
        the walk the refresh makes, and a visited clique is asked for the
        targets whose owners lie in its subtree.  The look-up runs in
        pre-order, the order a recursive descent opens its visits and emits
        their trace events; a cache hit answers its whole subtree, so the
        cliques below it are not visited.  The misses are then computed in
        reverse, children first: the live conditional times the asked
        children's answers in ascending rank, with the residual names that
        are not targets summed away.  Each computed answer is cached unless
        it covers all of two or more targets: a repeat of the query hits the
        memo, and a superset query or a write outside the clique's subtree
        rarely comes to read it (on the benchmark's query-mix stream 4 of
        32,973 such entries were hit, and they held nine tenths of the
        cached cells).  Both passes are loops, so tree depth is bounded by
        memory, not by the interpreter's recursion limit.
        """
        tree, cache, counters = self.tree, self._cache, self._counters
        whole = frozenset(tg) if len(tg) > 1 else None  # never cached
        asked: dict[int, list[str]] = {}
        for t in tg:
            for cid in _up_from(tree, tree.owner[t]):
                asked.setdefault(cid, []).append(t)
        answers: dict[int, Factor] = {}
        missed: dict[int, tuple[tuple[int, frozenset[str]], list[int], list[str]]] = {}
        for cid in sorted(asked, key=tree.first.__getitem__):
            clique = tree.cliques[cid]
            if clique.parent is not None and clique.parent not in missed:
                continue  # an ancestor was answered from the cache
            targets = tuple(asked[cid])
            key = (cid, frozenset(targets))
            if self.cache_enabled and key in cache:
                counters.cache_hits += 1
                answers[cid] = cache[key]
                if trace is not None:
                    trace.append(
                        TraceEvent(cid, targets, clique.separator, (), "cache")
                    )
                continue
            if self.cache_enabled:
                counters.cache_misses += 1
            kids = [ch for ch in tree.children[cid] if ch in asked]  # ascending rank
            names = self._live[cid].conditional.names
            sum_away = [r for r in clique.residual if r in names and r not in tg]
            missed[cid] = (key, kids, sum_away)
            if trace is not None:
                requests = tuple(
                    (ch, tuple(asked[ch]), tree.cliques[ch].separator) for ch in kids
                )
                resolution = "stored" if not kids and not sum_away else "computed"
                trace.append(
                    TraceEvent(cid, targets, clique.separator, requests, resolution)
                )
        for cid in reversed(missed):
            key, kids, sum_away = missed[cid]
            answer = self._live[cid].conditional
            for ch in kids:
                answer = multiply(answer, answers[ch], counters)
            if sum_away:
                answer = sum_out(answer, sum_away, counters)
            if self.cache_enabled and key[1] != whole:
                cache[key] = answer
            answers[cid] = answer
        parts = [answers[root] for root in tree.roots if root in asked]
        answer = parts[0]
        for part in parts[1:]:
            answer = multiply(answer, part, counters)
        return answer

    # -- validation ---------------------------------------------------------

    def _check_targets(self, targets: Sequence[str]) -> tuple[str, ...]:
        tg = tuple(targets)
        if not tg:
            raise QueryError("a query needs at least one target variable")
        if len(set(tg)) != len(tg):
            raise QueryError(f"duplicate target in {list(tg)}")
        for name in tg:
            self.bn.var(name)  # raises MissingVariableError
            if name in self._evidence:
                raise QueryError(
                    f"{name!r} is observed; retract it to query its distribution"
                )
        return tg


def _up_from(tree: CliqueTree, cid: int | None) -> Iterator[int]:
    """``cid`` and its ancestors, nearest first."""
    while cid is not None:
        yield cid
        cid = tree.cliques[cid].parent
