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
admitted loudly, not rejected).  Zero rows are errors, and so are
negative, infinite and NaN probabilities.

The loader makes one pass over the declarations.  Each ``cpt`` block's
numbers are converted in one call and appended to one flat list, so every
probability ends up in one float64 array in which each CPT is a
contiguous run.  That array is validated in bulk: every number finite and
nonnegative, then every row with positive, finite mass.  The rows of each
child cardinality are summed by one reduction and divided in place, and
each CPT is a read-only view of the result, so loading calls no
validating ``Factor`` constructor.

Errors keep the order of a token-by-token reading.  A fault in the
structure (header, ``var`` and ``cpt`` lines, a token that is not a
number, a block with too many or too few numbers) is raised at its line,
the first in the document first.  Then the first negative or non-finite
number in the document, at its line; then the first row without mass in
declaration order, after the warnings for the rows before it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import NetworkFormatError
from .factors import Factor, Variable
from .network import BayesianNetwork

FORMAT_TAG = "bnet"
FORMAT_VERSION = "1"
ROW_WARN_TOLERANCE = 1e-6

_Line = tuple[int, list[str]]  # line number, tokens


class _Block(NamedTuple):
    """Where one CPT's numbers are: in the document and in the flat list."""

    line: int  # of the ``cpt`` line
    start: int
    count: int
    numbers: list[_Line]


def load_network(
    path: str | Path,
    warn: Callable[[str], None] | None = None,
) -> BayesianNetwork:
    """Read, parse and validate the network document at ``path``.

    ``warn`` receives human-readable renormalization notices; it defaults
    to discarding them.  ``parse_network`` takes the document's text.
    """
    return parse_network(Path(path).read_text(), warn=warn)


def parse_network(
    text: str, warn: Callable[[str], None] | None = None
) -> BayesianNetwork:
    """Parse and validate a network document; ``warn`` as in ``load_network``."""
    warn = warn or (lambda message: None)
    lines = [
        (lineno, toks)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (toks := raw.split("#", 1)[0].split())
    ]
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
    blocks: dict[str, _Block] = {}
    flat: list[float] = []  # every probability, in document order
    heads = [k for k in range(1, len(lines)) if lines[k][1][0] in ("var", "cpt")]
    if len(lines) > 1 and heads[:1] != [1]:
        raise _stray_line(lines[1])
    heads.append(len(lines))
    for k, end in zip(heads, heads[1:]):
        lineno, toks = lines[k]
        if toks[0] == "var":
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
            if end > k + 1:
                raise _stray_line(lines[k + 1])
            continue
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
        if child in blocks:
            raise NetworkFormatError(f"duplicate cpt for {child!r}", lineno)
        parents[child] = plist
        need = by_name[child].cardinality
        for p in plist:
            need *= by_name[p].cardinality
        start = len(flat)
        numbers = lines[k + 1:end]
        blocks[child] = _Block(lineno, start, need, numbers)
        try:
            flat.extend(map(float, chain.from_iterable(t for _, t in numbers)))
            complete = len(flat) - start == need
        except ValueError:
            complete = False
        if not complete:
            raise _block_error(child, need, numbers, lines[min(end, len(lines) - 1)][0])

    missing = [v.name for v in variables if v.name not in blocks]
    if missing:
        raise NetworkFormatError(f"no cpt block for {missing}")

    values = np.array(flat, dtype=np.float64)
    ok = (values >= 0) & (values < math.inf)  # False for NaN too
    if not ok.all():
        raise _bad_number(int(np.argmin(ok)), values, blocks)
    tables = _renormalized(values, variables, parents, blocks, by_name, warn)
    cpts: dict[str, Factor] = {}
    for v in variables:
        scope = tuple(by_name[p] for p in parents[v.name]) + (v,)
        table = tables[v.name].reshape(tuple(u.cardinality for u in scope))
        cpts[v.name] = Factor._trusted(scope, tuple(u.name for u in scope), table)
    return BayesianNetwork(variables, parents, cpts)


def _stray_line(line: _Line) -> NetworkFormatError:
    lineno, toks = line
    return NetworkFormatError(f"expected 'var' or 'cpt', got {toks[0]!r}", lineno)


def _block_error(
    child: str, need: int, numbers: list[_Line], next_line: int
) -> NetworkFormatError:
    """The first fault of a block that did not convert to ``need`` numbers.

    Token by token: one that is not a number, or one past the count, is
    reported at its line; a short block at ``next_line``, the line that
    ends it.
    """
    got = 0
    for lineno, toks in numbers:
        for tok in toks:
            try:
                float(tok)
            except ValueError:
                return NetworkFormatError(
                    f"expected a probability, got {tok!r}", lineno
                )
            got += 1
            if got > need:
                return NetworkFormatError(
                    f"CPT for {child!r} has more than {need} probabilities", lineno
                )
    return NetworkFormatError(
        f"CPT for {child!r} needs {need} probabilities, got {got}", next_line
    )


def _bad_number(
    index: int, values: np.ndarray, blocks: dict[str, _Block]
) -> NetworkFormatError:
    """The error for the negative or non-finite number at ``values[index]``."""
    child, block = next(
        (c, b) for c, b in blocks.items() if b.start <= index < b.start + b.count
    )
    kind = "finite" if not math.isfinite(values[index]) else "nonnegative"
    start = block.start
    for lineno, toks in block.numbers:
        if index - start < len(toks):
            return NetworkFormatError(
                f"expected a {kind} probability, got {toks[index - start]!r} "
                f"in the CPT for {child!r}",
                lineno,
            )
        start += len(toks)
    raise AssertionError("index outside its block")


def _renormalized(
    values: np.ndarray,
    variables: list[Variable],
    parents: dict[str, tuple[str, ...]],
    blocks: dict[str, _Block],
    by_name: dict[str, Variable],
    warn: Callable[[str], None],
) -> dict[str, np.ndarray]:
    """Each CPT's rows divided by their sums, keyed by child name.

    The rows of the CPTs whose child has ``k`` states are stacked, summed
    by one reduction (per row the same pairwise sum as a one-row sum, so
    the same bits) and divided in place; each table is a view of its
    stack.  Flagged rows go out in declaration order: a warning for each
    row off by more than the tolerance, up to the first row without mass,
    which raises.
    """
    order = {v.name: i for i, v in enumerate(variables)}
    stacks: dict[int, list[str]] = {}
    for v in variables:
        stacks.setdefault(v.cardinality, []).append(v.name)
    tables: dict[str, np.ndarray] = {}
    events: list[tuple[int, int, str, float, bool]] = []  # flagged rows
    for card, names in stacks.items():
        spans = [(blocks[name].start, blocks[name].count) for name in names]
        rows = np.concatenate([values[s:s + n] for s, n in spans]).reshape(-1, card)
        with np.errstate(over="ignore"):  # an overflowed sum is reported below
            sums = rows.sum(axis=1)
        bad = ~((sums > 0) & (sums < math.inf))
        flagged = bad | (np.abs(sums - 1.0) > ROW_WARN_TOLERANCE)
        firsts = []
        first = 0
        for name, (_, n) in zip(names, spans):
            firsts.append(first)
            tables[name] = rows[first:first + n // card]
            first += n // card
        for k in np.flatnonzero(flagged).tolist():
            i = bisect_right(firsts, k) - 1
            events.append((order[names[i]], k - firsts[i], names[i], sums[k], bad[k]))
        if not bad.any():
            rows /= sums[:, None]
    for _, r, name, s, is_bad in sorted(events, key=itemgetter(0, 1)):
        if is_bad:
            raise NetworkFormatError(
                f"CPT row {r} for {name!r} has no probability mass", blocks[name].line
            )
        label = _row_label(name, parents[name], by_name, r)
        warn(f"CPT row {label} sums to {s:.6g}; renormalized")
    return tables


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
