"""Network document parsing, validation errors, round-tripping."""

import numpy as np
import pytest

import bnquery
from bnquery import NetworkFormatError, dump_network, parse_network

MINIMAL = """\
bnet 1
var a off on
cpt a
  0.25 0.75
"""


def test_minimal_file_loads_and_answers():
    bn = parse_network(MINIMAL)
    engine = bnquery.QueryEngine(bn)
    ans = engine.query_joint(["a"])
    assert list(ans.flat) == [0.25, 0.75]


def test_a_missing_path_is_not_read_as_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for path in ("typo.net", tmp_path / "typo.net"):
        with pytest.raises(FileNotFoundError):
            bnquery.load_network(path)


def test_comments_and_blank_lines_ignored():
    text = "# hello\n\nbnet 1\n\nvar a x y  # trailing\ncpt a\n 0.5 0.5\n"
    bn = parse_network(text)
    assert bn.var("a").states == ("x", "y")


def test_numbers_may_wrap_lines():
    text = "bnet 1\nvar a x y\nvar b u v\ncpt a\n0.5\n0.5\ncpt b | a\n0.1 0.9\n0.3\n0.7\n"
    bn = parse_network(text)
    assert bn.cpt("b").values.shape == (2, 2)


def test_renormalization_warning_names_the_row():
    text = "bnet 1\nvar a x y\nvar b u v\ncpt a\n0.5 0.5\ncpt b | a\n0.4 0.5\n0.3 0.7\n"
    warnings = []
    bn = parse_network(text, warn=warnings.append)
    assert len(warnings) == 1
    assert "'b'" in warnings[0] and "a=x" in warnings[0] and "0.9" in warnings[0]
    assert np.allclose(bn.cpt("b").values.sum(axis=-1), 1.0)


def test_tiny_row_drift_is_fixed_silently():
    text = "bnet 1\nvar a x y\ncpt a\n0.5 0.5000000001\n"
    warnings = []
    bn = parse_network(text, warn=warnings.append)
    assert warnings == []
    assert bn.cpt("a").values.sum() == 1.0


def expect_error(text, fragment, line=None):
    with pytest.raises(NetworkFormatError) as info:
        parse_network(text)
    assert fragment in str(info.value)
    if line is not None:
        assert info.value.line == line
    return info.value


def test_distinct_error_messages():
    expect_error("", "empty document")
    expect_error("bnet 9\nvar a x y\ncpt a\n1 0\n", "unsupported format version", 1)
    expect_error("var a x y\n", "expected header")
    expect_error("bnet 1\nvar a\n", "at least one state", 2)
    expect_error("bnet 1\nvar a x y\nvar a x y\n", "declared twice", 3)
    expect_error("bnet 1\nvar a x y\ncpt b\n1 0\n", "undeclared variable", 3)
    expect_error(
        "bnet 1\nvar a x y\ncpt a | z\n1 0\n", "undeclared parent", 3
    )
    expect_error("bnet 1\nvar a x y\ncpt a\n0.5\n", "needs 2 probabilities", 4)
    expect_error("bnet 1\nvar a x y\ncpt a\n0.5 0.25 0.25\n", "more than 2", 4)
    expect_error("bnet 1\nvar a x y\ncpt a\nfoo bar\n", "expected a probability", 4)
    expect_error("bnet 1\nvar a x y\n", "no cpt block")
    expect_error("bnet 1\nvar a x y\ncpt a\n0 0\n", "no probability mass")
    expect_error(
        "bnet 1\nvar a x y\nvar b u v\ncpt a\n1 0\ncpt a\n1 0\n", "duplicate cpt", 6
    )


def test_cycle_reported():
    text = (
        "bnet 1\nvar a x y\nvar b u v\n"
        "cpt a | b\n1 0\n0 1\ncpt b | a\n1 0\n0 1\n"
    )
    with pytest.raises(bnquery.InvalidNetworkError, match="cyclic"):
        parse_network(text)


def test_round_trip(asia_bn):
    text = dump_network(asia_bn)
    again = parse_network(text)
    assert again.names == asia_bn.names
    for name in asia_bn.names:
        assert again.parents[name] == asia_bn.parents[name]
        assert again.var(name).states == asia_bn.var(name).states
        assert np.array_equal(again.cpt(name).values, asia_bn.cpt(name).values)


def test_round_trip_after_renormalization():
    sloppy = "bnet 1\nvar a x y\nvar b u v\ncpt a\n0.5 0.5\ncpt b | a\n0.4 0.5\n0.3 0.7\n"
    bn = parse_network(sloppy)
    again = parse_network(dump_network(bn))
    for name in bn.names:
        assert np.array_equal(again.cpt(name).values, bn.cpt(name).values)


def test_asia_fixture_compiles_to_the_six_cliques(asia_bn):
    tree = bnquery.compile_network(asia_bn, bnquery.ASIA_GOLDEN_ORDER)
    assert {c.member_set for c in tree.cliques} == {
        frozenset(s) for s in ("AT", "TLE", "LEB", "BLS", "EBD", "EX")
    }
