"""Network construction and validation."""

import warnings

import numpy as np
import pytest

from bnquery import (
    BayesianNetwork,
    Factor,
    InvalidNetworkError,
    Variable,
    compile_network,
)


def two_bit(name):
    return Variable(name, ("0", "1"))


def test_valid_network():
    a, b = two_bit("a"), two_bit("b")
    bn = BayesianNetwork(
        [a, b],
        {"a": (), "b": ("a",)},
        {"a": Factor([a], [0.4, 0.6]), "b": Factor([a, b], [0.1, 0.9, 0.7, 0.3])},
    )
    assert bn.names == ("a", "b")
    assert bn.family("b") == ("a", "b")
    assert bn.state_space_size() == 4
    assert bn.state_index("b", "1") == 1


def test_cycle_rejected():
    a, b = two_bit("a"), two_bit("b")
    with pytest.raises(InvalidNetworkError, match="cyclic"):
        BayesianNetwork(
            [a, b],
            {"a": ("b",), "b": ("a",)},
            {
                "a": Factor([b, a], np.full((2, 2), 0.5)),
                "b": Factor([a, b], np.full((2, 2), 0.5)),
            },
        )


def test_cpt_scope_must_match_family():
    a, b = two_bit("a"), two_bit("b")
    with pytest.raises(InvalidNetworkError, match="scope"):
        BayesianNetwork(
            [a, b],
            {"a": (), "b": ("a",)},
            {"a": Factor([a], [0.4, 0.6]), "b": Factor([b], [0.5, 0.5])},
        )


def test_cpt_rows_must_normalize():
    a = two_bit("a")
    with pytest.raises(InvalidNetworkError, match="deviate"):
        BayesianNetwork([a], {"a": ()}, {"a": Factor([a], [0.4, 0.55])})


def test_unknown_parent_rejected():
    a = two_bit("a")
    with pytest.raises(InvalidNetworkError, match="unknown parent"):
        BayesianNetwork([a], {"a": ("z",)}, {"a": Factor([a], [0.5, 0.5])})


def test_missing_cpt_rejected():
    a, b = two_bit("a"), two_bit("b")
    with pytest.raises(InvalidNetworkError, match="no CPT"):
        BayesianNetwork([a, b], {"a": (), "b": ()}, {"a": Factor([a], [0.5, 0.5])})


def test_cpt_child_rows_sum_to_one_for_every_parent_assignment(asia_bn):
    for name in asia_bn.names:
        rows = asia_bn.cpt(name).values.reshape(-1, asia_bn.var(name).cardinality)
        assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9)


def test_parent_names_are_the_declared_str_names():
    # numpy string parents (as numpy's choice returns them) hash and compare
    # like str, so without this, sets of names would hold either type
    a, b, c = two_bit("a"), two_bit("b"), two_bit("c")
    bn = BayesianNetwork(
        [a, b, c],
        {"b": (np.str_("a"),), "c": (np.str_("a"), np.str_("b"))},
        {
            "a": Factor([a], [0.4, 0.6]),
            "b": Factor([a, b], np.full((2, 2), 0.5)),
            "c": Factor([a, b, c], np.full((2, 2, 2), 0.5)),
        },
    )
    assert bn.parents["c"] == ("a", "b")
    tree = compile_network(bn)
    names = [p for ps in bn.parents.values() for p in ps]
    for clique in tree.cliques:
        names += [*clique.members, *clique.separator, *clique.residual]
    assert names and all(type(n) is str for n in names)


def test_row_check_names_the_first_failing_cpt_in_declaration_order():
    # the rows of each child cardinality are checked together; the error
    # still names the first bad CPT as declared, and a bad row comes before
    # a bad scope declared after it
    a, b = two_bit("a"), two_bit("b")
    c = Variable("c", ("0", "1", "2"))
    good = {
        "a": Factor([a], [0.4, 0.6]),
        "b": Factor([a, b], [0.1, 0.9, 0.7, 0.3]),
        "c": Factor([b, c], [0.2, 0.3, 0.5, 0.1, 0.1, 0.8]),
    }
    parents = {"a": (), "b": ("a",), "c": ("b",)}
    bad_c = Factor([b, c], [0.2, 0.3, 0.4, 0.1, 0.1, 0.8])
    bad_b = Factor([a, b], [0.1, 0.9, 0.7, 0.2])
    for cpts, fragment in (
        ({**good, "c": bad_c}, "'c' deviate from 1 by up to 0.1"),
        ({**good, "b": bad_b, "c": bad_c}, "'b' deviate from 1 by up to 0.1"),
        ({**good, "b": bad_b, "c": good["b"]}, "'b' deviate"),
        ({**good, "b": good["a"], "c": bad_c}, "CPT for 'b' must have scope"),
    ):
        with pytest.raises(InvalidNetworkError, match=fragment):
            BayesianNetwork([a, b, c], parents, cpts)


def test_a_row_sum_that_overflows_is_a_typed_error():
    a = two_bit("a")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidNetworkError, match="deviate from 1 by up to inf"):
            BayesianNetwork([a], {"a": ()}, {"a": Factor([a], [1e308, 1e308])})
