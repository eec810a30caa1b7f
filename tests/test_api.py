"""The public API, pinned name by name.

Adding, removing or renaming a public name must edit these lists on
purpose; their length is the API size that design reviews track.
"""

import inspect

import bnquery

PUBLIC_NAMES = [
    "ASIA_GOLDEN_ORDER",
    "BadStateError",
    "BayesianNetwork",
    "Clique",
    "CliqueState",
    "CliqueTree",
    "CompilationError",
    "EvidenceError",
    "Factor",
    "IncompatibleVariableError",
    "InferenceError",
    "InvalidFactorError",
    "InvalidNetworkError",
    "MissingVariableError",
    "NetworkFormatError",
    "OpCounters",
    "ParsedQuery",
    "Query",
    "QueryEngine",
    "QueryError",
    "QueryParseError",
    "StateSpaceError",
    "TraceEvent",
    "UndirectedGraph",
    "Variable",
    "asia_path",
    "assign_cpts",
    "collect_conditionals",
    "compile_network",
    "compute_potentials",
    "dump_network",
    "enumerate_joint",
    "evidence_probability",
    "find_cliques",
    "load_network",
    "max_deviation",
    "mcs_numbering",
    "min_fill_order",
    "moralize",
    "multiply",
    "normalize_conditional",
    "oracle_query",
    "order_cliques",
    "parse_network",
    "parse_query",
    "preprocess",
    "reorder_scope",
    "substitute",
    "sum_out",
    "triangulate",
    "unit_factor",
]

ENGINE_NAMES = [
    "cache_size",
    "evidence",
    "evidence_probability",
    "observe",
    "op_counters",
    "query",
    "query_conditional",
    "query_joint",
    "reset_counters",
    "retract",
    "stored_conditional",
]


#: Attributes of a compiled tree, methods and instance fields alike.
TREE_NAMES = [
    "children",
    "cliques",
    "containing",
    "elimination_order",
    "fill_edges",
    "label",
    "owner",
    "path_up",
    "subtree_variables",
    "to_dot",
]


def public(obj):
    return sorted(
        name
        for name in dir(obj)
        if not name.startswith("_") and not inspect.ismodule(getattr(obj, name))
    )


def test_package_public_names_are_pinned():
    assert public(bnquery) == PUBLIC_NAMES


def test_query_engine_public_names_are_pinned():
    assert public(bnquery.QueryEngine) == ENGINE_NAMES


def test_compiled_clique_tree_public_names_are_pinned():
    bn = bnquery.load_network(bnquery.asia_path())
    assert public(bnquery.compile_network(bn)) == TREE_NAMES
