"""Network document parsing, validation errors, round-tripping."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnquery
from bnquery import NetworkFormatError, dump_network, parse_network
from corpus import random_network
from reference import ref_parse_network

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


def test_bad_numbers_are_typed_and_located():
    text = "bnet 1\nvar a x y\ncpt a\n-0.5 1.5\n"
    error = expect_error(text, "expected a nonnegative probability, got '-0.5'", 4)
    assert "'a'" in str(error)
    assert isinstance(error, bnquery.InferenceError)
    head = "bnet 1\nvar a x y\nvar b u v\ncpt a\n0.5 0.5\ncpt b | a\n0.5 0.5\n0.5\n"
    for tok in ("inf", "nan", "1e400", "-inf", "Infinity"):
        text = head + f"{tok}  # wrapped\n"
        error = expect_error(text, f"expected a finite probability, got {tok!r}", 9)
        assert "'b'" in str(error)
    # the first bad number in the document is the one reported
    expect_error(head.replace("0.5 0.5\n0.5\n", "0.5 -1\n0.5\n") + "nan\n", "'-1'", 7)


# -- the loader against the token-by-token reference ----------------------------


def _document(bn, rng, mutation=None):
    """``bn`` as text: rows scaled off by up to 1e-3, numbers wrapped across
    lines, comments and blank lines, CPT blocks in shuffled order.  A
    mutation breaks one block: a bad token, a number too many or too few,
    a zero row, or an undeclared name."""
    out = ["# generated", "bnet 1", ""]
    for v in bn.variables:
        out.append("var " + " ".join((v.name,) + v.states))
        if rng.random() < 0.2:
            out[-1] += "  # declared"
    names = list(bn.names)
    rng.shuffle(names)
    broken = names[int(rng.integers(len(names)))]
    for name in names:
        card = bn.var(name).cardinality
        rows = bn.cpt(name).values.reshape(-1, card)
        scales = np.where(rng.random(len(rows)) < 0.5, 1.0,
                          1.0 + rng.uniform(-1e-3, 1e-3, len(rows)))
        toks = [repr(float(x)) for x in (rows * scales[:, None]).ravel()]
        head = ["cpt", name]
        if bn.parents[name]:
            head += ["|", *bn.parents[name]]
        if name == broken:
            at = int(rng.integers(len(toks)))
            if mutation == "bad token":
                toks.insert(int(rng.integers(len(toks) + 1)), "0.5x")
            elif mutation == "too many":
                toks.append("0.25")
            elif mutation == "too few":
                del toks[at]
            elif mutation == "zero row":
                row = at // card
                toks[row * card:(row + 1) * card] = ["0"] * card
            elif mutation == "undeclared name":
                named = [i for i, t in enumerate(head) if i and t != "|"]
                head[int(rng.choice(named))] = "ZZ"
        out += ["", " ".join(head)]
        while toks:
            k = int(rng.integers(1, 2 * card + 1))
            out.append("  " + " ".join(toks[:k]))
            toks = toks[k:]
            if rng.random() < 0.1:
                out.append("# between rows" if rng.random() < 0.5 else "")
    return "\n".join(out) + "\n"


def _outcome(parse, text):
    warnings = []
    try:
        bn = parse(text, warn=warnings.append)
    except Exception as exc:  # the outcome compared is the error itself
        return warnings, (type(exc), str(exc), getattr(exc, "line", None))
    return warnings, bn


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        [None, "bad token", "too many", "too few", "zero row", "undeclared name"]
    ),
)
def test_loader_matches_the_token_by_token_reference(seed, mutation):
    rng = np.random.default_rng(seed)
    text = _document(random_network(rng, int(rng.integers(1, 10))), rng, mutation)
    got_warnings, got = _outcome(parse_network, text)
    want_warnings, want = _outcome(ref_parse_network, text)
    assert got_warnings == want_warnings
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, bnquery.BayesianNetwork)
    assert got.names == want.names and got.parents == want.parents
    for name in want.names:
        assert got.cpt(name).names == want.cpt(name).names
        assert got.cpt(name).values.tobytes() == want.cpt(name).values.tobytes()


def test_loader_matches_the_reference_on_wide_rows():
    # rows of 13 states and two cardinalities in one document: each row sum
    # is one pairwise sum, whether taken alone or in a stacked reduction
    rng = np.random.default_rng(5)
    rows = rng.uniform(0.01, 1.0, size=(3, 13))
    numbers = "\n".join(" ".join(repr(float(x)) for x in row) for row in rows)
    states = " ".join(f"s{i}" for i in range(13))
    text = (
        f"bnet 1\nvar a x y z\nvar b {states}\n"
        f"cpt b | a\n{numbers}\ncpt a\n0.2 0.3 0.5001\n"
    )
    got_warnings, got = _outcome(parse_network, text)
    want_warnings, want = _outcome(ref_parse_network, text)
    assert got_warnings == want_warnings and len(want_warnings) == 4
    for name in "ab":
        assert got.cpt(name).values.tobytes() == want.cpt(name).values.tobytes()


@pytest.mark.parametrize(
    "text",
    [
        "bnet 1\n",
        "bnet 1\n0.5 0.5\n",
        "bnet 1\nvar a x y\n0.5 0.5\n",
        "bnet 1\nvar a x y\ncpt a\n0.5 0.5\nvar b u v\n0.5 0.5\ncpt b\n1 0\n",
        "bnet 1\nvar a x y\ncpt a\nvar b u v\ncpt b\n1 0\n",
        "bnet 1\nvar a x y\ncpt a\n0.5\n0.5 x\n",
        "bnet 1\nvar a x y\ncpt a\n0.5 0.5 x\n",
        "bnet 1\nvar a x y\ncpt a\n0.5 x 0.5\n",
        "bnet 1\nvar a x y\ncpt a\n0.5 0.5\ncpt a | a\n",
        "bnet 1\nvar a x y\nvar b u v\ncpt b | a\n1 0 0 0\ncpt a\n0 0\n",
        "bnet 1\nvar a x y\nvar b u v\ncpt b | a\n1e308 1e308 1 0\ncpt a\n1 1\n",
        "bnet 1\nvar a x x\n",
        "bnet 1\nvar a x y\ncpt a b\n",
    ],
)
def test_structural_errors_match_the_reference(text):
    def shown(outcome):
        warnings, result = outcome
        return warnings, result if isinstance(result, tuple) else result.names

    want = shown(_outcome(ref_parse_network, text))
    assert shown(_outcome(parse_network, text)) == want


def test_a_row_sum_that_overflows_is_a_typed_error():
    text = "bnet 1\nvar a x y\ncpt a\n1e308 1e308\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expect_error(text, "CPT row 0 for 'a' has no probability mass", 3)
