"""Goal-directed query answering over a preprocessed clique tree.

A query for a set of target variables opens at L, the targets' lowest
common clique: the deepest clique whose subtree holds every target's
owner (the clique holding it in its residual).  It visits each owner and
the owner's ancestors up to L, and answers them children first.  A
visited clique is asked for the targets whose owners lie in its subtree:
those in its residual stay put, the others are requested from its visited
children (a child with no targets below it is never asked), and the child
answers are multiplied with the clique's stored residual conditional
before the unwanted residual variables are summed away.  L's answer is
P(targets | separator of L, evidence).  Above L the walk would only weigh
it by the distribution of that separator, so unless L is clique 0 the
answer is multiplied by P(separator | evidence), summed from the clique
marginal of L's parent, and the separator is summed away.  Clique
marginals P(members | evidence) are the distribute pass run lazily: each
is computed top-down on first use (clique 0's is its live conditional, a
child's its live conditional times the parent's marginal summed to the
separator) and kept until the next refresh.  A per-clique answer is
cached under (clique, target set), so repeated and overlapping queries
reuse earlier work, and a hit answers its clique's whole subtree.  A
query's answer is clique 0's entry over all its targets, stored in
request order and read before the walk; no other entry over all of two
or more targets is cached.

Each clique has one ``CliqueState`` record in two maps: ``prep`` holds
the pristine records from preprocessing, and the live map the records the
current evidence gives.  Writes only record: ``observe`` and
``retract`` check their arguments and edit the evidence.  Every read (a
query, whole-query hits included, ``stored_conditional`` or
``evidence_probability``) first compares the evidence with the evidence
the live tables hold, and where they differ runs one refresh, the one
place writes are applied and what they change is invalidated.  The
pristine potentials of the cliques that hold a changed variable are
sliced again by the current evidence, and ``preprocess.collect_step`` is
rerun once over those cliques and their ancestors, children first, each
writing a new live record.  Every table, the root's included, thus stays
P(residual | separator, evidence below), and the root's message holds the
mass P(evidence).  A live record is a function of the current evidence
alone, so a run of writes costs one refresh and leaves the tables an
eager refresh after each write would, and writes that cancel out cost
nothing.  A clique with no evidence left in its subtree takes back its
pristine record.  The refresh drops the cache entries keyed on a
refreshed clique, clique 0's among them; the others depend on no table
that changed.  Every refresh touches clique 0, so it drops every clique
marginal.  The marginals are kept whether or not answers are cached:
they are tree state, like the live map, bounded by the tree's total
cells.  ``query_joint`` multiplies an answer, P(targets |
evidence), by clique 0's message P(evidence).  Impossible evidence in any
component zeroes clique 0's conditional, and so every clique marginal and
every answer: a walk from below clique 0 is weighed by a zero separator
marginal.

An engine instance is strictly single-threaded: queries may not overlap
observe/retract calls, and the caches are plain dicts.  The factor tables
themselves are immutable and may be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cliquetree import CliqueTree, compile_network
from .errors import EvidenceError, QueryError
from .factors import (
    Factor,
    OpCounters,
    _checked_state,
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
    (clique 0's whole-query answer, read before the walk; clique_id is None).
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
        self._cache: dict[tuple[int, frozenset[str]], Factor] = {}
        self._marginals: dict[int, Factor] = {}  # clique marginals, filled on first use
        self._counters = OpCounters()

    # -- introspection ------------------------------------------------------

    @property
    def evidence(self) -> dict[str, int]:
        return dict(self._evidence)

    def stored_conditional(self, cid: int) -> Factor:
        if self._evidence != self._applied:
            self._refresh()
        return self._live[cid].conditional

    def op_counters(self) -> OpCounters:
        return self._counters.snapshot()

    def reset_counters(self) -> None:
        self._counters.reset()

    def cache_size(self) -> int:
        """Cache entries, whole-query answers included.  Writes are not applied
        first, so this may count entries that the next read drops."""
        return len(self._cache)

    # -- queries ------------------------------------------------------------

    def query_joint(
        self, targets: Sequence[str], *, trace: list[TraceEvent] | None = None
    ) -> Factor:
        """Unnormalized P(targets, evidence) over the requested scope order.

        With no evidence the answer is the cached table itself.
        """
        answer = self._posterior(self._check_targets(targets), trace)
        if self._evidence:
            answer = multiply(answer, self._live[0].message, self._counters)
        return answer

    def _posterior(
        self, tg: tuple[str, ...], trace: list[TraceEvent] | None
    ) -> Factor:
        """P(targets | evidence) over the order ``tg``, cached under clique 0."""
        if self._evidence != self._applied:
            self._refresh()
        key = (0, frozenset(tg))
        if self.cache_enabled:
            if key in self._cache:
                self._counters.cache_hits += 1
                if trace is not None:
                    trace.append(TraceEvent(None, tg, (), (), "memo"))
                return reorder_scope(self._cache[key], tg)
            self._counters.cache_misses += 1
        answer = reorder_scope(self._resolve(tg, trace), tg)
        if self.cache_enabled:
            self._cache[key] = answer
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

        Pending writes are applied first; transient evidence then holds for
        this query alone, and the evidence, live tables and cache as they
        stood are put back.  Zero-mass contexts of the conditioning
        variables yield all-zero columns.
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
        if not transient_evidence:
            joint = self._posterior(self._check_targets(tg + gv), trace)
            return normalize_conditional(joint, tg)
        if self._evidence != self._applied:
            self._refresh()
        kept = self._evidence, self._applied, self._live, self._cache, self._marginals
        # A refresh edits the live map in place.
        self._evidence, self._live = dict(self._evidence), dict(self._live)
        try:
            for name, state in transient_evidence:
                self.observe(name, state)
            joint = self._posterior(self._check_targets(tg + gv), trace)
            return normalize_conditional(joint, tg)
        finally:
            self._evidence, self._applied, self._live, self._cache, self._marginals = kept

    def query(self, q: Query, *, trace: list[TraceEvent] | None = None) -> Factor:
        return self.query_conditional(
            q.targets, q.given, q.transient_evidence, trace=trace
        )

    def evidence_probability(self) -> float:
        """P(evidence), the mass of clique 0's message; exactly 1.0 with none.
        Masses of several components whose product underflows read 5e-324."""
        if self._evidence != self._applied:
            self._refresh()
        return self._live[0].message.total() if self._evidence else 1.0

    # -- evidence -----------------------------------------------------------

    def observe(self, name: str, state: int) -> None:
        """Record name=state; the next read applies it.

        ``state`` must be an integer state index.  Re-observing the same
        state is a no-op; a different state is an error (retract first).
        Writes apply lazily, so every error raises here, before the evidence
        changes.
        """
        state = _checked_state(self.bn.var(name), state)
        if name in self._evidence:
            if self._evidence[name] == state:
                return
            raise EvidenceError(
                f"{name!r} is already observed at state "
                f"{self._evidence[name]}; retract it before re-observing"
            )
        self._evidence[name] = state

    def retract(self, name: str) -> None:
        """Withdraw an observation; the next read applies it."""
        if name not in self._evidence:
            raise EvidenceError(f"{name!r} is not observed")
        del self._evidence[name]

    def _refresh(self) -> None:
        """Bring the live tables to the current evidence, and drop what changed.

        A read calls this when the evidence differs from the evidence the
        tables hold.  A variable whose finding differs is changed; writes
        that cancelled out change nothing.  The cliques holding a changed
        variable form a connected subtree topped by its owner, so their
        union plus the owners' ancestors is every clique whose record can
        change.  Each ancestor walk stops at a clique already walked, which
        keeps the gathering O(touched).  The collect step is rerun over
        those cliques, children first, each getting a new live record.
        Then the cache entries on the touched cliques, clique 0 always
        among them, are dropped; the others read no table that changed.
        """
        tree, prep, live, evidence = self.tree, self.prep, self._live, self._evidence
        changed = {name for name, _ in evidence.items() ^ self._applied.items()}
        sliced: set[int] = set()
        walked: set[int] = set()
        for name in changed:
            sliced.update(tree.containing[name])
            for cid in tree.path_up(tree.owner[name]):
                if cid in walked:
                    break
                walked.add(cid)
        touched = sliced | walked
        for cid in sorted(touched, reverse=True):
            st, children = prep[cid], tree.children[cid]
            if cid in sliced:
                potential = st.potential
                for v in tree.cliques[cid].members:
                    if v in evidence:
                        potential = substitute(potential, v, evidence[v], self._counters)
            else:
                potential = live[cid].potential
            if potential is st.potential and all(live[ch] is prep[ch] for ch in children):
                live[cid] = st
            else:
                live[cid] = collect_step(tree, cid, potential, live, self._counters)
        self._applied = dict(evidence)
        self._cache = {k: f for k, f in self._cache.items() if k[0] not in touched}
        self._marginals = {}

    # -- decomposition ------------------------------------------------------

    def _resolve(self, tg: tuple[str, ...], trace: list[TraceEvent] | None) -> Factor:
        """P(targets | evidence), from the targets' lowest common clique.

        A query visits the owner of each target and the owner's ancestors
        up to L, the deepest clique asked for every target (their owners'
        lowest common ancestor, found by lifting the highest-ranked owner
        until all meet), and a visited clique is asked for the targets
        whose owners lie in its subtree.  The look-up opens the asked
        cliques depth first from L, children in ascending rank: the order
        a recursive descent opens its visits and emits their trace events.
        A cache hit answers its whole subtree, so the cliques below it are
        not opened.  The misses are then computed in reverse, children
        first: the live conditional times the asked children's answers in
        ascending rank, with the residual names that are not targets summed
        away.  L's answer is P(targets | sep_L, evidence); unless L is
        clique 0 it is weighed by P(sep_L | evidence), summed from the
        parent's clique marginal (``_marginal``), and the separator is
        summed away.  The weight is taken even when the separator is empty
        or observed: then it is the scalar 1, or 0 under impossible
        evidence elsewhere.  Only the walk from L down is traced.

        Each key is looked up at most once per query: clique 0's key over
        the targets is the one ``_posterior`` has just missed, so it is
        neither looked up nor stored here.  Every other computed answer is
        cached, unless it is L's over two or more targets: a repeat of the
        query reads clique 0's entry first.  Both passes are loops, so tree
        depth is bounded by memory, not by the interpreter's recursion
        limit.
        """
        tree, cache, counters = self.tree, self._cache, self._counters
        heads = {tree.owner[t] for t in tg}
        while len(heads) > 1:
            deepest = max(heads)
            heads.remove(deepest)
            heads.add(tree.cliques[deepest].parent)
        (top,) = heads
        asked: dict[int, list[str]] = {}
        for t in tg:
            for cid in tree.path_up(tree.owner[t]):
                asked.setdefault(cid, []).append(t)
                if cid == top:
                    break
        unkept = (top, frozenset(tg)) if top == 0 or len(tg) > 1 else None
        answers: dict[int, Factor] = {}
        missed: dict[int, tuple[tuple[int, frozenset[str]], list[int], list[str]]] = {}
        stack = [top]
        while stack:
            cid = stack.pop()
            clique = tree.cliques[cid]
            targets = tuple(asked[cid])
            key = (cid, frozenset(targets))
            if self.cache_enabled and cid:  # clique 0's key is _posterior's
                if key in cache:
                    counters.cache_hits += 1
                    answers[cid] = cache[key]
                    if trace is not None:
                        trace.append(
                            TraceEvent(cid, targets, clique.separator, (), "cache")
                        )
                    continue
                counters.cache_misses += 1
            kids = [ch for ch in tree.children[cid] if ch in asked]  # ascending rank
            names = self._live[cid].conditional.names
            sum_away = [r for r in clique.residual if r in names and r not in tg]
            missed[cid] = (key, kids, sum_away)
            stack.extend(reversed(kids))
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
            if self.cache_enabled and key != unkept:
                cache[key] = answer
            answers[cid] = answer
        answer = answers[top]
        if top:
            separator = tree.cliques[top].separator
            above = self._marginal(tree.cliques[top].parent)
            weight = sum_out(above, [n for n in above.names if n not in separator], counters)
            answer = multiply(answer, weight, counters)
            answer = sum_out(answer, weight.names, counters)
        return answer

    def _marginal(self, cid: int) -> Factor:
        """P(members of ``cid`` | evidence), computed top-down on first use.

        Clique 0's marginal is its live conditional; a child's is its live
        conditional times its parent's marginal summed to its separator (the
        distribute pass, run lazily).  Every refresh touches clique 0 and so
        drops the whole map.
        """
        tree, marginals = self.tree, self._marginals
        path = []
        for c in tree.path_up(cid):
            if c in marginals:
                break
            path.append(c)
        for c in reversed(path):
            clique, conditional = tree.cliques[c], self._live[c].conditional
            if clique.parent is None:
                marginals[c] = conditional
                continue
            above = marginals[clique.parent]
            drop = [n for n in above.names if n not in clique.separator]
            marginals[c] = multiply(
                conditional, sum_out(above, drop, self._counters), self._counters
            )
        return marginals[cid]

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
