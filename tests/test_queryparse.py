"""Query expression grammar."""

import pytest

from bnquery import QueryParseError, parse_query


def test_plain_joint():
    q = parse_query("P(A, X, S)")
    assert q.targets == ("A", "X", "S")
    assert q.given == () and q.transient_evidence == ()


def test_conditional_with_evidence():
    q = parse_query("P(A, X | B, E=yes)")
    assert q.targets == ("A", "X")
    assert q.given == ("B",)
    assert q.transient_evidence == (("E", "yes"),)


def test_whitespace_and_case_of_p():
    q = parse_query("  p( A |  B ) ")
    assert q.targets == ("A",) and q.given == ("B",)


def test_bar_side_optional():
    assert parse_query("P(D)").targets == ("D",)
    assert parse_query("P(D|)").targets == ("D",)


def test_names_may_hold_any_other_punctuation():
    q = parse_query("P(lung.ca, x-ray | tb/or:ca, smoker's=yes)")
    assert q.targets == ("lung.ca", "x-ray")
    assert q.given == ("tb/or:ca",)
    assert q.transient_evidence == (("smoker's", "yes"),)


def test_underscored_names():
    q = parse_query("P(node_1 | node_2=s_0)")
    assert q.targets == ("node_1",)
    assert q.transient_evidence == (("node_2", "s_0"),)


@pytest.mark.parametrize(
    "bad",
    [
        "A, X",              # no P( )
        "P(A",               # unbalanced
        "P()",               # no targets
        "P(A=yes)",          # binding on the left
        "P(A | A)",          # repeated name
        "P(A | B=)",         # empty state
        "P(A | =yes)",       # empty name
        "P(A B)",            # not comma separated
        "P(A | B C)",        # not comma separated, right of the bar
        "P(A | B C=yes)",    # a bound name with a space
        "P(A | B | C)",      # a second bar
        "P(A(B))",           # a name holding a parenthesis
    ],
)
def test_rejects_malformed(bad):
    with pytest.raises(QueryParseError):
        parse_query(bad)
