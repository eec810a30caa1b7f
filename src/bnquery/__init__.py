"""Exact inference for discrete Bayesian networks over a compiled clique tree.

The package compiles a network into a clique tree, precomputes each
clique's residual-given-separator conditional, and answers arbitrary
joint and conditional queries by cached goal-directed decomposition over
the tree.  Evidence is folded in incrementally by substitution, and a
brute-force enumeration oracle is included for cross-checking.
"""

from importlib.resources import files as _files

from .cliquetree import Clique, CliqueTree, compile_network, order_cliques
from .engine import Query, QueryEngine, TraceEvent
from .errors import (
    BadStateError,
    CompilationError,
    EvidenceError,
    IncompatibleVariableError,
    InferenceError,
    InvalidFactorError,
    InvalidNetworkError,
    MissingVariableError,
    NetworkFormatError,
    QueryError,
    QueryParseError,
    StateSpaceError,
)
from .factors import (
    Factor,
    OpCounters,
    Variable,
    multiply,
    normalize_conditional,
    reorder_scope,
    substitute,
    sum_out,
    unit_factor,
)
from .graphs import (
    UndirectedGraph,
    find_cliques,
    mcs_numbering,
    min_fill_order,
    moralize,
    triangulate,
)
from .netfile import dump_network, load_network, parse_network
from .network import BayesianNetwork
from .oracle import (
    enumerate_joint,
    evidence_probability,
    max_deviation,
    oracle_query,
)
from .preprocess import (
    CliqueState,
    assign_cpts,
    collect_conditionals,
    compute_potentials,
    distribute_marginals,
    node_marginals,
    preprocess,
)
from .queryparse import ParsedQuery, parse_query

__version__ = "0.1.0"

#: Elimination order under which the bundled chest-clinic network compiles
#: to its textbook clique tree rooted at (AT); see README.
ASIA_GOLDEN_ORDER = ("A", "X", "D", "S", "B", "L", "T", "E")


def asia_path() -> str:
    """Filesystem path of the bundled chest-clinic example network."""
    return str(_files("bnquery").joinpath("data/asia.net"))
