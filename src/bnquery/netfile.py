"""Plain-text network documents.

Format (whitespace separated, ``#`` starts a comment, blank lines ignored)::

    bnet 1
    var  NAME STATE [STATE ...]
    cpt  CHILD [| PARENT ...]
      p p p ...

A ``cpt`` block lists exactly (product of parent cardinalities) x (child
cardinality) probabilities, row-major over [parents in listed order, then
child] with the child index varying fastest; line breaks inside the block
are free.  Each child row should sum to 1.  Rows are renormalized exactly
on load; a row off by more than 1e-6 is reported (hand-typed files are
admitted loudly, not rejected).  Zero rows are errors.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NetworkFormatError
from .factors import Factor, Variable
from .network import BayesianNetwork

FORMAT_TAG = "bnet"
FORMAT_VERSION = "1"
ROW_WARN_TOLERANCE = 1e-6


def load_network(
    path: str | Path,
    warn: Callable[[str], None] | None = None,
) -> BayesianNetwork:
    """Read, parse and validate the network document at ``path``.

    ``warn`` receives human-readable renormalization notices; it defaults
    to discarding them.  ``parse_network`` takes the document's text.
    """
    return parse_network(Path(path).read_text(), warn=warn)


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def parse_network(
    text: str, warn: Callable[[str], None] | None = None
) -> BayesianNetwork:
    warn = warn or (lambda message: None)
    lines = list(_tokens(text))
    if not lines:
        raise NetworkFormatError("empty document; expected a 'bnet 1' header")
    lineno, header = lines[0]
    if header[:1] != [FORMAT_TAG] or len(header) != 2:
        raise NetworkFormatError(
            f"expected header '{FORMAT_TAG} {FORMAT_VERSION}', got {' '.join(header)!r}",
            lineno,
        )
    if header[1] != FORMAT_VERSION:
        raise NetworkFormatError(f"unsupported format version {header[1]!r}", lineno)

    variables: list[Variable] = []
    by_name: dict[str, Variable] = {}
    parents: dict[str, tuple[str, ...]] = {}
    raw_cpts: dict[str, tuple[int, list[float]]] = {}  # child -> (def line, numbers)
    pending: str | None = None  # child whose numbers are being gathered
    pending_need = 0

    def finish_pending(at_line: int) -> None:
        nonlocal pending
        if pending is None:
            return
        got = len(raw_cpts[pending][1])
        if got != pending_need:
            raise NetworkFormatError(
                f"CPT for {pending!r} needs {pending_need} probabilities, got {got}",
                at_line,
            )
        pending = None

    for lineno, toks in lines[1:]:
        key = toks[0]
        if key == "var":
            finish_pending(lineno)
            if len(toks) < 3:
                raise NetworkFormatError(
                    "var needs a name and at least one state label", lineno
                )
            name = toks[1]
            if name in by_name:
                raise NetworkFormatError(f"variable {name!r} declared twice", lineno)
            try:
                v = Variable(name, tuple(toks[2:]))
            except ValueError as exc:
                raise NetworkFormatError(str(exc), lineno) from None
            variables.append(v)
            by_name[name] = v
        elif key == "cpt":
            finish_pending(lineno)
            body = toks[1:]
            if "|" in body:
                bar = body.index("|")
                child, plist = body[:bar], tuple(body[bar + 1:])
            else:
                child, plist = body, ()
            if len(child) != 1:
                raise NetworkFormatError(
                    "cpt needs exactly one child name before '|'", lineno
                )
            child = child[0]
            if child not in by_name:
                raise NetworkFormatError(
                    f"cpt references undeclared variable {child!r}", lineno
                )
            for p in plist:
                if p not in by_name:
                    raise NetworkFormatError(
                        f"cpt for {child!r} references undeclared parent {p!r}", lineno
                    )
            if child in raw_cpts:
                raise NetworkFormatError(f"duplicate cpt for {child!r}", lineno)
            parents[child] = plist
            need = by_name[child].cardinality
            for p in plist:
                need *= by_name[p].cardinality
            raw_cpts[child] = (lineno, [])
            pending = child
            pending_need = need
        else:
            if pending is None:
                raise NetworkFormatError(
                    f"expected 'var' or 'cpt', got {key!r}", lineno
                )
            numbers = raw_cpts[pending][1]
            for tok in toks:
                try:
                    numbers.append(float(tok))
                except ValueError:
                    raise NetworkFormatError(
                        f"expected a probability, got {tok!r}", lineno
                    ) from None
                if len(numbers) > pending_need:
                    raise NetworkFormatError(
                        f"CPT for {pending!r} has more than "
                        f"{pending_need} probabilities",
                        lineno,
                    )
    last_line = lines[-1][0]
    finish_pending(last_line)

    missing = [v.name for v in variables if v.name not in raw_cpts]
    if missing:
        raise NetworkFormatError(f"no cpt block for {missing}")

    cpts: dict[str, Factor] = {}
    for name in (v.name for v in variables):
        defline, numbers = raw_cpts[name]
        child = by_name[name]
        scope = tuple(by_name[p] for p in parents[name]) + (child,)
        table = np.array(numbers, dtype=float).reshape(
            tuple(v.cardinality for v in scope)
        )
        rows = table.reshape(-1, child.cardinality)
        for r in range(rows.shape[0]):
            s = rows[r].sum()
            if s <= 0 or not math.isfinite(s):
                raise NetworkFormatError(
                    f"CPT row {r} for {name!r} has no probability mass", defline
                )
            if abs(s - 1.0) > ROW_WARN_TOLERANCE:
                warn(
                    f"CPT row {_row_label(name, parents[name], by_name, r)} sums to "
                    f"{s:.6g}; renormalized"
                )
            rows[r] /= s
        cpts[name] = Factor(scope, table)

    return BayesianNetwork(variables, parents, cpts)


def _row_label(
    child: str,
    plist: tuple[str, ...],
    by_name: dict[str, Variable],
    row: int,
) -> str:
    if not plist:
        return f"for {child!r}"
    labels = []
    remainder = row
    for p in reversed(plist):
        card = by_name[p].cardinality
        labels.append((p, by_name[p].states[remainder % card]))
        remainder //= card
    inside = ", ".join(f"{p}={s}" for p, s in reversed(labels))
    return f"for {child!r} ({inside})"


def dump_network(bn: BayesianNetwork) -> str:
    """Serialize with full-precision values; reparses to an equal network."""
    out = [f"{FORMAT_TAG} {FORMAT_VERSION}", ""]
    for v in bn.variables:
        out.append("var " + " ".join((v.name,) + v.states))
    for v in bn.variables:
        plist = bn.parents[v.name]
        head = f"cpt {v.name}"
        if plist:
            head += " | " + " ".join(plist)
        out.append("")
        out.append(head)
        rows = bn.cpt(v.name).values.reshape(-1, v.cardinality)
        for row in rows:
            out.append("  " + " ".join(repr(float(x)) for x in row))
    return "\n".join(out) + "\n"
