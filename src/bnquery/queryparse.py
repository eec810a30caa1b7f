"""Parsing of query expressions like ``P(A, X, S | B, E=yes)``.

Names left of the bar are targets.  Bare names on the right are
conditioning variables; ``name=state`` on the right binds transient
evidence for the duration of the query.  The bar and right side are
optional.  Every name is a token with no whitespace and none of
``, | = ( )``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import QueryParseError


@dataclass(frozen=True)
class ParsedQuery:
    targets: tuple[str, ...]
    given: tuple[str, ...]
    transient_evidence: tuple[tuple[str, str], ...]  # (variable, state label)


def parse_query(text: str) -> ParsedQuery:
    s = text.strip()
    if not (s.startswith("P(") or s.startswith("p(")) or not s.endswith(")"):
        raise QueryParseError(
            f"expected an expression of the form P(targets | conditions), got {text!r}"
        )
    inner = s[2:-1]
    if "|" in inner:
        left, _, right = inner.partition("|")
    else:
        left, right = inner, ""

    targets = _split_names(left, "target")
    if not targets:
        raise QueryParseError("a query needs at least one target variable")
    given: list[str] = []
    transient: list[tuple[str, str]] = []
    for item in _split_items(right):
        if "=" in item:
            name, _, state = item.partition("=")
            name, state = name.strip(), state.strip()
            if not name or not state:
                raise QueryParseError(f"malformed evidence binding {item!r}")
            transient.append((_checked_name(name, "evidence"), state))
        else:
            given.append(_checked_name(item, "conditioning"))

    seen: set[str] = set()
    for name in list(targets) + given + [n for n, _ in transient]:
        if name in seen:
            raise QueryParseError(f"{name!r} appears twice in the query")
        seen.add(name)
    return ParsedQuery(tuple(targets), tuple(given), tuple(transient))


def _split_items(part: str) -> list[str]:
    items = [item.strip() for item in part.split(",")]
    return [item for item in items if item]


def _split_names(part: str, role: str) -> list[str]:
    names = []
    for item in _split_items(part):
        if "=" in item:
            raise QueryParseError(
                f"{role} list may not bind states; move {item!r} right of the bar"
            )
        names.append(_checked_name(item, role))
    return names


_NAME = re.compile(r"[^\s,|=()]+")


def _checked_name(name: str, role: str) -> str:
    if not (name.isalnum() or _NAME.fullmatch(name)):  # most names are alphanumeric
        raise QueryParseError(f"bad {role} name {name!r}")
    return name
