"""Command surface: one-shot commands, the piped REPL, exit codes."""

import io
import sys

import numpy as np
import pytest

import bnquery
from bnquery.cli import main

ASIA = bnquery.asia_path()
ORDER = ",".join(bnquery.ASIA_GOLDEN_ORDER)


def run(argv, stdin=""):
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        import contextlib

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_query_prints_labeled_table_summing_to_one():
    code, out, err = run(["--order", ORDER, ASIA, "query", "P(A,T)"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "P(A, T):"
    values = [float(line.split()[-1]) for line in lines[2:]]
    assert sum(values) == pytest.approx(1.0, abs=1e-9)
    assert "yes" in lines[2] and "no" in lines[5]


GOLDEN_TRACE_TEXT = """\
(AT): received P(AXS); requests P(XS|T) from (TLE)
(TLE): received P(XS|T); requests P(XS|LE) from (LEB)
(LEB): received P(XS|LE); requests P(S|LB) from (LBS); requests P(X|BE) from (BED)
(LBS): received P(S|LB); answered from stored conditional
(BED): received P(X|BE); requests P(X|E) from (EX)
(EX): received P(X|E); answered from stored conditional
"""


def test_trace_golden():
    code, out, _ = run(["--order", ORDER, ASIA, "query", "P(A,X,S)", "--trace"])
    assert code == 0
    trace = "".join(
        line + "\n" for line in out.splitlines() if line.startswith("(")
    )
    assert trace == GOLDEN_TRACE_TEXT


MIXED_NAMES = """\
bnet 1
var A yes no
var B yes no
var Cx yes no
cpt A
  0.4 0.6
cpt B | A
  0.1 0.9
  0.7 0.3
cpt Cx | B
  0.2 0.8
  0.5 0.5
"""


def test_names_join_by_one_rule_across_the_network(tmp_path):
    # one name longer than a character puts commas in every list
    path = tmp_path / "mixed.net"
    path.write_text(MIXED_NAMES)
    code, out, err = run([str(path), "compile"])
    assert (code, err) == (0, "")
    assert out == (
        "compiled: 2 cliques, 0 fill edges\n"
        "(A,B) root\n"
        "(B,Cx) <- (A,B) separator {B}\n"
    )
    code, out, err = run([str(path), "query", "P(A,Cx)", "--trace"])
    assert (code, err) == (0, "")
    trace = [line for line in out.splitlines() if line.startswith("(")]
    assert trace == [
        "(A,B): received P(A,Cx); requests P(Cx|B) from (B,Cx)",
        "(B,Cx): received P(Cx|B); answered from stored conditional",
    ]


TWO_PARTS = """\
bnet 1
var a yes no
var b yes no
var c yes no
var d yes no
cpt a
  0.4 0.6
cpt b | a
  0.1 0.9
  0.7 0.3
cpt c
  0.5 0.5
cpt d | c
  0.2 0.8
  0.5 0.5
"""


def test_compile_links_components_into_one_tree(tmp_path):
    # (cd) hangs from (ab) through an empty separator: one root line
    path = tmp_path / "two.net"
    path.write_text(TWO_PARTS)
    code, out, err = run([str(path), "compile"])
    assert (code, err) == (0, "")
    assert out == (
        "compiled: 2 cliques, 0 fill edges\n"
        "(ab) root\n"
        "(cd) <- (ab) separator {}\n"
    )


PUNCTUATED_NAMES = """\
bnet 1
var smoker yes no
var lung.ca yes no
var x-ray yes no
cpt smoker
  0.3 0.7
cpt lung.ca | smoker
  0.1 0.9
  0.01 0.99
cpt x-ray | lung.ca
  0.98 0.02
  0.05 0.95
"""


def test_any_loadable_name_can_be_queried(tmp_path):
    path = tmp_path / "punctuated.net"
    path.write_text(PUNCTUATED_NAMES)
    code, out, err = run([str(path), "query", "P(lung.ca | x-ray=yes)", "--check"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "P(lung.ca | x-ray=yes) (normalized):"
    assert float(out.splitlines()[-1].split("=")[-1]) <= 1e-9
    code, out, err = run([str(path), "query", "P(x-ray | smoker)"])
    assert (code, err) == (0, "")


def test_trace_is_byte_deterministic():
    argv = ["--order", ORDER, ASIA]
    script = "query P(A,X,S) --trace\nquery P(X,S) --trace\n"
    first = run(argv, stdin=script)
    second = run(argv, stdin=script)
    assert first == second
    assert first[0] == 0


def test_repeated_traced_query_is_answered_from_the_memo():
    script = "query P(A,X,S) --trace\nquery P(A,X,S) --trace\n"
    code, out, _ = run(["--order", ORDER, ASIA], stdin=script)
    assert code == 0
    first_trace, first_table_and_second_trace, second_table = out.split(
        "P(A, X, S):\n"
    )
    assert first_trace == GOLDEN_TRACE_TEXT
    # the second trace is the memo line alone, and the answer is the same
    assert first_table_and_second_trace == (
        second_table + "query answered from cache\n"
    )


def test_observe_then_checked_normalized_query():
    script = "observe E=yes\nquery P(A,X,S) --normalize --check\n"
    code, out, err = run(["--order", ORDER, ASIA], stdin=script)
    assert code == 0 and err == ""
    assert "observed E = yes" in out
    check = [line for line in out.splitlines() if line.startswith("check:")]
    assert len(check) == 1
    deviation = float(check[0].split("=")[-1])
    assert deviation <= 1e-9


def test_observe_retract_round_trip_restores_marginals():
    base = run([ASIA], stdin="show marginals\n")
    undone = run([ASIA], stdin="observe D=yes\nretract D\nshow marginals\n")
    assert base[0] == undone[0] == 0
    tail = undone[1].splitlines()[-8:]
    assert base[1].splitlines()[-8:] == tail


def test_compile_and_show_tree():
    code, out, _ = run(["--order", ORDER, ASIA, "compile"])
    assert code == 0
    assert out.splitlines()[0] == "compiled: 6 cliques, 1 fill edge"
    assert "(AT) root" in out
    assert "(EX) <- (BED) separator {E}" in out


def test_dot_export(tmp_path):
    target = tmp_path / "tree.dot"
    code, out, _ = run(["--order", ORDER, ASIA, "show", "tree", "--dot", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("graph cliquetree {")
    assert 'c0 [label="A T"]' in text
    assert '[label="T"]' in text  # separator label on the root edge


def test_counters_and_reset():
    script = "query P(X)\nshow counters\nreset counters\nshow counters\n"
    code, out, _ = run([ASIA], stdin=script)
    assert code == 0
    counter_lines = [l for l in out.splitlines() if l.startswith("multiplications")]
    assert len(counter_lines) == 2
    assert counter_lines[1] == (
        "multiplications=0 summations=0 substitutions=0 "
        "cache_hits=0 cache_misses=0"
    )


def test_exit_status_zero_iff_no_command_errored():
    ok = run([ASIA], stdin="query P(A)\n")
    assert ok[0] == 0
    bad = run([ASIA], stdin="query P(zzz)\nquery P(A)\n")
    assert bad[0] == 1
    assert "error:" in bad[2]
    missing = run(["/no/such/file.net", "query", "P(A)"])
    assert missing[0] == 1


def test_unknown_command_and_flag():
    code, _, err = run([ASIA, "frobnicate"])
    assert code == 1 and "unknown command" in err
    code, _, err = run([ASIA, "query", "P(A)", "--sideways"])
    assert code == 1 and "unknown query flag" in err


def test_transient_evidence_via_expression():
    code, out, err = run([ASIA, "query", "P(X | E=yes)", "--check"])
    assert code == 0 and err == ""
    deviation = float(out.splitlines()[-1].split("=")[-1])
    assert deviation <= 1e-9


def test_renormalization_warning_on_load(tmp_path):
    doc = tmp_path / "sloppy.net"
    doc.write_text("bnet 1\nvar a x y\ncpt a\n0.45 0.45\n")
    code, out, err = run([str(doc), "query", "P(a)"])
    assert code == 0
    assert "renormalized" in err and "0.9" in err
    rows = [float(line.split()[-1]) for line in out.splitlines()[2:]]
    assert rows == [0.5, 0.5]


def test_marginals_mark_observed_variables():
    script = "observe E=yes\nshow marginals\n"
    code, out, _ = run([ASIA], stdin=script)
    assert code == 0
    assert "E: observed = yes" in out
    d_line = [l for l in out.splitlines() if l.startswith("D:")][0]
    assert "yes=" in d_line and "no=" in d_line


def test_marginals_after_observe_match_the_engine_and_the_oracle():
    script = "observe E=yes\nobserve S=no\nshow marginals\n"
    code, out, err = run(["--full-precision", ASIA], stdin=script)
    assert code == 0 and err == ""
    bn = bnquery.load_network(ASIA)
    evidence = {"E": 0, "S": 1}
    engine = bnquery.QueryEngine(bn)
    for name, state in evidence.items():
        engine.observe(name, state)
    joint = bnquery.enumerate_joint(bn)
    rows = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    for name in bn.names:
        if name in evidence:
            assert rows[name].startswith("observed = ")
            continue
        printed = [float(cell.split("=")[1]) for cell in rows[name].split()]
        for reference in (
            engine.query_conditional([name]),
            bnquery.oracle_query(joint, [name], evidence=evidence),
        ):
            assert np.max(np.abs(np.array(printed) - reference.values)) <= 1e-12


def test_help_and_quit():
    code, out, err = run([ASIA], stdin="help\nquit\nquery P(A)\n")
    assert code == 0 and err == ""
    assert "observe VAR=STATE" in out
    assert "P(A)" not in out  # nothing executes after quit


def test_full_precision_flag():
    brief = run([ASIA, "query", "P(T)"])
    full = run(["--full-precision", ASIA, "query", "P(T)"])
    v_brief = brief[1].splitlines()[2].split()[-1]
    v_full = full[1].splitlines()[2].split()[-1]
    assert len(v_full) >= len(v_brief)
    assert float(v_full) == pytest.approx(0.0104, abs=1e-12)
