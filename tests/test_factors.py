"""Factor primitives: layout law, the three operations, normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnquery import (
    BadStateError,
    Factor,
    IncompatibleVariableError,
    MissingVariableError,
    OpCounters,
    Variable,
    multiply,
    normalize_conditional,
    reorder_scope,
    substitute,
    sum_out,
    unit_factor,
)
from reference import (
    assignments,
    factor_matches,
    ref_multiply,
    ref_normalize,
    ref_substitute,
    ref_sum_out,
    table_of,
)

B = Variable("B", ("0", "1"))
E = Variable("E", ("0", "1"))
X3 = Variable("X3", ("a", "b", "c"))


def test_layout_last_variable_fastest():
    # flat index = b * card(E) + e for scope (B, E)
    f = Factor([B, E], [1.0, 2.0, 3.0, 4.0])
    assert f.value_at({"B": 0, "E": 0}) == 1.0
    assert f.value_at({"B": 0, "E": 1}) == 2.0
    assert f.value_at({"B": 1, "E": 0}) == 3.0
    assert f.value_at({"B": 1, "E": 1}) == 4.0
    assert list(f.flat) == [1.0, 2.0, 3.0, 4.0]


def test_empty_scope_holds_one_value():
    f = Factor([], [0.25])
    assert f.size == 1
    assert f.total() == 0.25
    with pytest.raises(ValueError):
        Factor([], [0.1, 0.2])


def test_constructor_rejects_bad_values():
    with pytest.raises(ValueError):
        Factor([B], [0.5, -0.1])
    with pytest.raises(ValueError):
        Factor([B], [0.5, float("nan")])
    with pytest.raises(ValueError):
        Factor([B], [0.5, float("inf")])
    with pytest.raises(ValueError):
        Factor([B, B], np.ones((2, 2)))


def test_factors_are_immutable():
    f = Factor([B], [0.3, 0.7])
    with pytest.raises(ValueError):
        f.values[0] = 9.0
    with pytest.raises(AttributeError):
        f.values = np.zeros(2)


# -- multiply ---------------------------------------------------------------


def test_multiply_identity():
    f = Factor([B], [0.3, 0.7])
    out = multiply(f, unit_factor())
    assert out.names == ("B",)
    assert list(out.flat) == [0.3, 0.7]
    out = multiply(unit_factor(), f)
    assert list(out.flat) == [0.3, 0.7]


def test_multiply_annihilator():
    f = Factor([B], [0.3, 0.7])
    g = Factor([B], [0.0, 0.0])
    assert list(multiply(f, g).flat) == [0.0, 0.0]


def test_multiply_broadcast_hand_enumerated():
    # expected cells computed by hand: (b, e) -> f(b) * g(b, e)
    f = Factor([B], [0.3, 0.7])
    g = Factor([B, E], [0.2, 0.8, 0.5, 0.5])
    out = multiply(f, g)
    assert out.names == ("B", "E")
    assert list(out.flat) == pytest.approx([0.06, 0.24, 0.35, 0.35], abs=0)


def test_multiply_disjoint_and_reordered_scopes():
    f = Factor([E, B], np.arange(4, dtype=float) + 1)
    g = Factor([B, X3], np.arange(6, dtype=float) + 1)
    out = multiply(f, g)
    scope, table = ref_multiply(f, g)
    ok, at, want, got = factor_matches(out, scope, table)
    assert ok, f"mismatch at {at}: want {want}, got {got}"


def test_multiply_conflicting_cardinality():
    other_b = Variable("B", ("x", "y", "z"))
    with pytest.raises(IncompatibleVariableError):
        multiply(Factor([B], [0.5, 0.5]), Factor([other_b], [0.2, 0.3, 0.5]))


def test_multiply_commutative_up_to_scope_order():
    rng = np.random.default_rng(3)
    f = Factor([B, X3], rng.random(6))
    g = Factor([X3, E], rng.random(6))
    fg = multiply(f, g)
    gf = multiply(g, f)
    assert np.array_equal(fg.values, reorder_scope(gf, fg.names).values)


# -- sum_out ----------------------------------------------------------------


def test_sum_out_empty_set_is_value_equal():
    f = Factor([B, E], [1.0, 2.0, 3.0, 4.0])
    out = sum_out(f, set())
    assert out.names == f.names
    assert np.array_equal(out.values, f.values)


def test_sum_out_layout_forced():
    f = Factor([B, E], [1.0, 2.0, 3.0, 4.0])
    out = sum_out(f, {"E"})
    assert out.names == ("B",)
    assert list(out.flat) == [3.0, 7.0]


def test_sum_out_whole_scope_gives_grand_total():
    f = Factor([B, E], [1.0, 2.0, 3.0, 4.0])
    out = sum_out(f, {"B", "E"})
    assert out.scope == ()
    assert out.total() == 10.0


def test_sum_out_cpt_child_gives_ones():
    d = Variable("D", ("0", "1"))
    cpt = Factor([B, E, d], [0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.1, 0.9])
    out = sum_out(cpt, {"D"})
    assert out.names == ("B", "E")
    assert np.allclose(out.values, 1.0)


def test_sum_out_missing_variable():
    with pytest.raises(MissingVariableError):
        sum_out(Factor([B], [0.5, 0.5]), {"Z"})


def test_sum_out_order_independent():
    rng = np.random.default_rng(11)
    f = Factor([B, E, X3], rng.random(12))
    both = sum_out(f, {"B", "E"})
    one_then_other = sum_out(sum_out(f, {"B"}), {"E"})
    other_then_one = sum_out(sum_out(f, {"E"}), {"B"})
    assert np.max(np.abs(both.values - one_then_other.values)) <= 1e-12
    assert np.max(np.abs(both.values - other_then_one.values)) <= 1e-12


# -- substitute ---------------------------------------------------------------


def test_substitute_to_empty_scope():
    f = Factor([E], [0.2, 0.8])
    out = substitute(f, "E", 1)
    assert out.scope == ()
    assert out.total() == 0.8


def test_substitute_layout_forced():
    f = Factor([B, E], [1.0, 2.0, 3.0, 4.0])
    out = substitute(f, "E", 0)
    assert out.names == ("B",)
    assert list(out.flat) == [1.0, 3.0]


def test_substitute_errors():
    f = Factor([B, E], np.ones(4))
    with pytest.raises(MissingVariableError):
        substitute(f, "Z", 0)
    with pytest.raises(BadStateError):
        substitute(f, "E", 2)


def test_states_must_be_integers():
    # a float state raises rather than being truncated; numpy integers count
    f = Factor([B, E], [1.0, 2.0, 3.0, 4.0])
    for bad in (0.7, 1.0, "1"):
        with pytest.raises(BadStateError):
            substitute(f, "E", bad)
        with pytest.raises(BadStateError):
            f.value_at({"B": 0, "E": bad})
    assert list(substitute(f, "E", np.int64(1)).flat) == [2.0, 4.0]
    assert f.value_at({"B": np.int8(1), "E": np.uint16(0)}) == 3.0


def test_substitute_then_sum_matches_sum_then_substitute():
    rng = np.random.default_rng(5)
    f = Factor([B, E, X3], rng.random(12))
    a = sum_out(substitute(f, "E", 1), {"B", "X3"})
    b = substitute(sum_out(f, {"B", "X3"}), "E", 1)
    # enumeration oracle for the common value
    total = 0.0
    for rest in assignments([B, X3]):
        total += f.value_at({**rest, "E": 1})
    assert a.scope == () and b.scope == ()
    assert a.total() == pytest.approx(total, abs=1e-12)
    assert b.total() == pytest.approx(total, abs=1e-12)


def test_substitute_matches_reference():
    rng = np.random.default_rng(6)
    f = Factor([B, E, X3], rng.random(12))
    out = substitute(f, "X3", 2)
    scope, table = ref_substitute(f, "X3", 2)
    ok, at, want, got = factor_matches(out, scope, table)
    assert ok, f"mismatch at {at}: want {want}, got {got}"


# -- normalize_conditional -----------------------------------------------------


def test_normalize_uniform_scaling():
    f = Factor([B], [0.25, 0.25])
    out = normalize_conditional(f, {"B"})
    assert list(out.flat) == [0.5, 0.5]


def test_normalize_zero_group_stays_zero():
    f = Factor([B], [0.0, 0.0])
    out = normalize_conditional(f, {"B"})
    assert list(out.flat) == [0.0, 0.0]


def test_normalize_columns_sum_to_one():
    rng = np.random.default_rng(9)
    values = rng.random((2, 2))
    values[:, 1] = 0.0  # one impossible context
    f = Factor([B, E], values)
    out = normalize_conditional(f, {"B"})
    sums = out.values.sum(axis=0)
    assert sums[0] == pytest.approx(1.0, abs=1e-12)
    assert sums[1] == 0.0


def test_normalize_matches_reference():
    rng = np.random.default_rng(13)
    f = Factor([B, E, X3], rng.random(12))
    out = normalize_conditional(f, {"B", "X3"})
    scope, table = ref_normalize(f, {"B", "X3"})
    ok, at, want, got = factor_matches(out, scope, table, tol=1e-12)
    assert ok, f"mismatch at {at}: want {want}, got {got}"


# -- counters -----------------------------------------------------------------


def test_counters_tally_cells():
    c = OpCounters()
    f = Factor([B], [0.3, 0.7])
    g = Factor([B, E], [0.2, 0.8, 0.5, 0.5])
    out = multiply(f, g, c)
    assert c.multiplications == out.size == 4
    sum_out(out, {"E"}, c)
    assert c.summations == 4 - 2
    substitute(out, "B", 0, c)
    assert c.substitutions == 2
    c.reset()
    assert c.multiplications == c.summations == c.substitutions == 0


# -- hypothesis properties ------------------------------------------------------

pool = [
    Variable("B", ("0", "1")),
    Variable("E", ("0", "1")),
    Variable("X3", ("a", "b", "c")),
    Variable("Q", ("u", "v")),
]


@st.composite
def factors(draw, max_vars=3):
    k = draw(st.integers(min_value=0, max_value=max_vars))
    scope = draw(
        st.permutations(pool).map(lambda p: tuple(p[:k]))
    )
    size = 1
    for v in scope:
        size *= v.cardinality
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    return Factor(scope, np.array(values).reshape([v.cardinality for v in scope]))


@settings(max_examples=60, deadline=None)
@given(factors(), factors())
def test_property_multiply_matches_reference(f, g):
    out = multiply(f, g)
    scope, table = ref_multiply(f, g)
    ok, at, want, got = factor_matches(out, scope, table, tol=1e-12)
    assert ok, f"mismatch at {at}: want {want}, got {got}"


@settings(max_examples=60, deadline=None)
@given(factors(), st.randoms())
def test_property_sum_out_matches_reference(f, rnd):
    if not f.scope:
        return
    names = {v.name for v in f.scope if rnd.random() < 0.5}
    out = sum_out(f, names)
    scope, table = ref_sum_out(f, names)
    ok, at, want, got = factor_matches(out, scope, table, tol=1e-9)
    assert ok, f"mismatch at {at}: want {want}, got {got}"


@settings(max_examples=60, deadline=None)
@given(factors(), factors(), st.randoms())
def test_property_substitute_commutes_with_multiply(f, g, rnd):
    shared = [v for v in f.scope] + [v for v in g.scope if v.name not in f.names]
    if not shared:
        return
    v = shared[rnd.randrange(len(shared))]
    s = rnd.randrange(v.cardinality)
    left = substitute(multiply(f, g), v.name, s)
    fs = substitute(f, v.name, s) if v.name in f.names else f
    gs = substitute(g, v.name, s) if v.name in g.names else g
    right = multiply(fs, gs)
    assert sorted(left.names) == sorted(right.names)
    assert np.array_equal(left.values, reorder_scope(right, left.names).values)


# -- trusted results -------------------------------------------------------------
#
# The primitives build their results without the constructor's checks.  Each
# result must still be exactly what the validating constructor would build.
# Products and slices are compared with the reference bit for bit; sums are
# accumulated by numpy in its own order, so they get a tolerance fixed from
# float64 rounding over at most 24 cells of at most 10.


def assert_validated(out):
    assert not out.values.flags.writeable  # before the constructor freezes it
    again = Factor(out.scope, out.values)
    assert out.scope == again.scope
    assert out.names == again.names == tuple(v.name for v in out.scope)
    assert type(out.values) is np.ndarray and out.values.dtype == np.float64
    assert out.values.shape == again.values.shape
    assert np.array_equal(out.values, again.values)


def some_names(f, rnd):
    return {v.name for v in f.scope if rnd.random() < 0.5}


@settings(max_examples=150, deadline=None)
@given(factors(), factors(), st.randoms())
def test_property_trusted_results_validate_and_match_reference(f, g, rnd):
    prod = multiply(f, g)
    assert_validated(prod)
    assert factor_matches(prod, *ref_multiply(f, g))[0]

    names = some_names(prod, rnd)
    marg = sum_out(prod, names)
    assert_validated(marg)
    assert factor_matches(marg, *ref_sum_out(prod, names), tol=1e-12)[0]

    cond = normalize_conditional(prod, names)
    assert_validated(cond)
    assert factor_matches(cond, *ref_normalize(prod, names), tol=1e-12)[0]

    order = list(prod.names)
    rnd.shuffle(order)
    moved = reorder_scope(prod, order)
    assert_validated(moved)
    assert moved.names == tuple(order)
    assert factor_matches(moved, prod.scope, table_of(prod))[0]

    for v in prod.scope:
        s = rnd.randrange(v.cardinality)
        sliced = substitute(prod, v.name, s)
        assert_validated(sliced)
        assert factor_matches(sliced, *ref_substitute(prod, v.name, s))[0]


def test_overflow_to_infinity_still_raises():
    # finite inputs whose product or sum leaves float64's range
    big = Factor([B], [1e200, 1e200])
    huge = Factor([B, E], np.full(4, 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            multiply(big, Factor([B, E], np.full(4, 1e200)))
        with pytest.raises(ValueError, match="finite"):
            sum_out(huge, {"E"})
        with pytest.raises(ValueError, match="finite"):
            sum_out(huge, {"B", "E"})
