"""Command-line front end: load a network, compile, query, manage evidence.

One-shot mode runs the single command given after the network file; with no
command the same grammar is served from stdin as a REPL (prompts appear
only on a tty, so piped command scripts produce byte-stable output).
"""

from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path

from .cliquetree import CliqueTree
from .engine import Query, QueryEngine, TraceEvent
from .errors import InferenceError
from .factors import Factor
from .netfile import load_network
from .oracle import enumerate_joint, max_deviation, oracle_query
from .preprocess import distribute_marginals, node_marginals
from .queryparse import ParsedQuery, parse_query

DEFAULT_SIG_DIGITS = 6
FULL_SIG_DIGITS = 17


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bnquery",
        description="Exact queries on a discrete Bayesian network "
        "via a compiled clique tree.",
    )
    parser.add_argument("network", help="path to a .net network document")
    parser.add_argument(
        "--order",
        help="comma-separated elimination order overriding the min-fill heuristic",
    )
    parser.add_argument(
        "--full-precision",
        action="store_true",
        help="print probabilities with 17 significant digits",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable per-clique answer caching (for diagnostics)",
    )
    parser.add_argument(
        "command",
        nargs=argparse.REMAINDER,
        help="one-shot command; omit for a REPL",
    )
    args = parser.parse_args(argv)

    try:
        session = Session(
            Path(args.network),
            order=args.order.split(",") if args.order else None,
            full_precision=args.full_precision,
            cache_enabled=not args.no_cache,
        )
    except (InferenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command:
        session.execute(args.command)
    else:
        session.repl()
    return 1 if session.errored else 0


class Session:
    """One loaded network plus the engine answering its queries."""

    def __init__(
        self,
        path: Path,
        order: list[str] | None = None,
        full_precision: bool = False,
        cache_enabled: bool = True,
    ):
        self.bn = load_network(path, warn=lambda m: print(f"warning: {m}", file=sys.stderr))
        self.engine = QueryEngine(
            self.bn, elimination_order=order, cache_enabled=cache_enabled
        )
        self.sig = FULL_SIG_DIGITS if full_precision else DEFAULT_SIG_DIGITS
        self.errored = False

    # -- command dispatch ---------------------------------------------------

    def repl(self) -> None:
        interactive = sys.stdin.isatty()
        while True:
            if interactive:
                try:
                    line = input("bnquery> ")
                except EOFError:
                    break
            else:
                line = sys.stdin.readline()
                if not line:
                    break
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line in ("quit", "exit"):
                break
            try:
                tokens = shlex.split(line)
            except ValueError as exc:
                self._fail(str(exc))
                continue
            self.execute(tokens)

    def execute(self, tokens: list[str]) -> None:
        try:
            self._dispatch(tokens)
        except InferenceError as exc:
            self._fail(str(exc))
        except OSError as exc:
            self._fail(str(exc))

    def _fail(self, message: str) -> None:
        print(f"error: {message}", file=sys.stderr)
        self.errored = True

    def _dispatch(self, tokens: list[str]) -> None:
        if not tokens:
            return
        cmd, rest = tokens[0], tokens[1:]
        if cmd == "compile":
            self.cmd_compile()
        elif cmd == "query":
            self.cmd_query(rest)
        elif cmd == "observe":
            self.cmd_observe(rest)
        elif cmd == "retract":
            self.cmd_retract(rest)
        elif cmd == "show":
            self.cmd_show(rest)
        elif cmd == "reset":
            if rest == ["counters"]:
                self.engine.reset_counters()
                print("counters reset")
            else:
                self._fail("usage: reset counters")
        elif cmd == "help":
            print(HELP_TEXT)
        else:
            self._fail(f"unknown command {cmd!r} (try 'help')")

    # -- commands -------------------------------------------------------------

    def cmd_compile(self) -> None:
        tree = self.engine.tree
        n, fills = len(tree.cliques), len(tree.fill_edges)
        print(
            f"compiled: {n} clique{'s' if n != 1 else ''}, "
            f"{fills} fill edge{'s' if fills != 1 else ''}"
        )
        self._print_tree(tree)

    def cmd_query(self, rest: list[str]) -> None:
        flags = {t for t in rest if t.startswith("--")}
        unknown = flags - {"--check", "--normalize", "--trace"}
        if unknown:
            self._fail(f"unknown query flag {sorted(unknown)[0]!r}")
            return
        expr = " ".join(t for t in rest if not t.startswith("--"))
        parsed = parse_query(expr)
        query = self._bind(parsed)

        trace: list[TraceEvent] | None = [] if "--trace" in flags else None
        if parsed.given or parsed.transient_evidence or "--normalize" in flags:
            answer = self.engine.query_conditional(
                query.targets, query.given, query.transient_evidence, trace=trace
            )
            normalized = True
        else:
            answer = self.engine.query_joint(query.targets, trace=trace)
            normalized = False

        if trace is not None:
            for line in self._format_trace(trace):
                print(line)
        print(self._heading(parsed) + (":" if not normalized else " (normalized):"))
        self._print_factor(answer)
        if not normalized and self.engine.evidence:
            print(f"total = {self._fmt(answer.total())} (evidence mass included)")
        if "--check" in flags:
            deviation = self._oracle_deviation(query, parsed)
            print(f"check: max |engine - oracle| = {deviation:.3e}")

    def cmd_observe(self, rest: list[str]) -> None:
        if len(rest) != 1 or "=" not in rest[0]:
            self._fail("usage: observe VAR=STATE")
            return
        name, _, label = rest[0].partition("=")
        state = self.bn.state_index(name, label)
        self.engine.observe(name, state)
        print(f"observed {name} = {label}")

    def cmd_retract(self, rest: list[str]) -> None:
        if len(rest) != 1:
            self._fail("usage: retract VAR")
            return
        self.engine.retract(rest[0])
        print(f"retracted {rest[0]}")

    def cmd_show(self, rest: list[str]) -> None:
        if rest[:1] == ["tree"]:
            if len(rest) == 3 and rest[1] == "--dot":
                Path(rest[2]).write_text(self.engine.tree.to_dot())
                print(f"wrote {rest[2]}")
            elif len(rest) == 1:
                self._print_tree(self.engine.tree)
            else:
                self._fail("usage: show tree [--dot PATH]")
        elif rest == ["marginals"]:
            self._show_marginals()
        elif rest == ["counters"]:
            c = self.engine.op_counters()
            print(
                f"multiplications={c.multiplications} summations={c.summations} "
                f"substitutions={c.substitutions} cache_hits={c.cache_hits} "
                f"cache_misses={c.cache_misses}"
            )
        else:
            self._fail("usage: show tree|marginals|counters")

    def _show_marginals(self) -> None:
        engine = self.engine
        conditionals = {c.id: engine.stored_conditional(c.id) for c in engine.tree.cliques}
        marginals = node_marginals(
            self.bn, engine.tree, distribute_marginals(engine.tree, conditionals)
        )
        evidence = engine.evidence
        for v in self.bn.variables:
            if v.name in evidence:
                print(f"{v.name}: observed = {v.states[evidence[v.name]]}")
                continue
            cells = " ".join(
                f"{label}={self._fmt(float(x))}"
                for label, x in zip(v.states, marginals[v.name].flat)
            )
            print(f"{v.name}: {cells}")

    # -- helpers --------------------------------------------------------------

    def _bind(self, parsed: ParsedQuery) -> Query:
        transient = tuple(
            (name, self.bn.state_index(name, label))
            for name, label in parsed.transient_evidence
        )
        return Query(parsed.targets, parsed.given, transient)

    def _oracle_deviation(self, query, parsed: ParsedQuery) -> float:
        joint = enumerate_joint(self.bn)
        evidence = dict(self.engine.evidence)
        evidence.update(dict(query.transient_evidence))
        reference = oracle_query(joint, query.targets, query.given, evidence)
        answer = self.engine.query_conditional(
            query.targets, query.given, query.transient_evidence
        )
        return max_deviation(answer, reference)

    def _heading(self, parsed: ParsedQuery) -> str:
        head = "P(" + ", ".join(parsed.targets)
        right = list(parsed.given) + [
            f"{n}={s}" for n, s in parsed.transient_evidence
        ]
        if right:
            head += " | " + ", ".join(right)
        return head + ")"

    def _format_trace(self, trace: list[TraceEvent]) -> list[str]:
        tree = self.engine.tree
        lines = []
        for event in trace:
            if event.resolution == "memo":
                lines.append("query answered from cache")
                continue
            received = _probability(tree, event.targets, event.separator)
            parts = [f"{tree.label(event.clique_id)}: received {received}"]
            for child_id, targets, separator in event.requests:
                req = _probability(tree, targets, separator)
                parts.append(f"requests {req} from {tree.label(child_id)}")
            if not event.requests:
                if event.resolution == "cache":
                    parts.append("answered from cache")
                elif event.resolution == "stored":
                    parts.append("answered from stored conditional")
            lines.append("; ".join(parts))
        return lines

    def _fmt(self, x: float) -> str:
        return f"{x:.{self.sig}g}"

    def _print_factor(self, f: Factor) -> None:
        if not f.scope:
            print(f"  {self._fmt(float(f.values))}")
            return
        headers = [v.name for v in f.scope]
        rows = []
        shape = [v.cardinality for v in f.scope]
        index = [0] * len(shape)
        for value in f.flat:
            rows.append(
                [f.scope[i].states[index[i]] for i in range(len(shape))]
                + [self._fmt(float(value))]
            )
            for i in reversed(range(len(shape))):
                index[i] += 1
                if index[i] < shape[i]:
                    break
                index[i] = 0
        widths = [
            max(len(headers[i]), max(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        print(("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths))).rstrip())
        for r in rows:
            cells = [r[i].ljust(widths[i]) for i in range(len(headers))]
            print("  " + "  ".join(cells) + "  " + r[-1])

    def _print_tree(self, tree: CliqueTree) -> None:
        for c in tree.cliques:
            if c.parent is None:
                print(f"{tree.label(c.id)} root")
            else:
                sep = tree._join(c.separator)
                print(
                    f"{tree.label(c.id)} <- {tree.label(c.parent)} "
                    f"separator {{{sep}}}"
                )


def _probability(tree: CliqueTree, targets, separator) -> str:
    """``P(targets|separator)``, names joined by the tree's rule."""
    text = "P(" + tree._join(targets)
    if separator:
        text += "|" + tree._join(separator)
    return text + ")"


HELP_TEXT = """\
commands:
  compile                      show the compiled clique tree
  query EXPR [--trace] [--check] [--normalize]
                               EXPR like  P(A, X | B, E=yes)
  observe VAR=STATE            assert evidence
  retract VAR                  withdraw evidence
  show tree [--dot PATH]       print the tree, or export Graphviz
  show marginals               posterior marginal of every variable
  show counters                operation counters
  reset counters               zero the counters
  quit                         leave the REPL\
"""


if __name__ == "__main__":
    sys.exit(main())
