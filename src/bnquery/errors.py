"""Exception types shared across the package."""


class InferenceError(Exception):
    """Base class for every error raised by bnquery."""


class InvalidFactorError(InferenceError, ValueError):
    """A variable or table is malformed (bad name, states, shape or values)."""


class IncompatibleVariableError(InferenceError):
    """Two factors use the same variable name with different state spaces."""


class MissingVariableError(InferenceError):
    """An operation referenced a variable that is not in scope."""


class BadStateError(InferenceError):
    """A state index or label is not valid for its variable."""


class InvalidNetworkError(InferenceError):
    """A network violates a structural invariant (cycle, bad CPT, ...)."""


class CompilationError(InferenceError):
    """Clique-tree construction failed (bad order, running-intersection bug)."""


class EvidenceError(InferenceError):
    """Evidence assertion or retraction is inconsistent with current state."""


class QueryError(InferenceError):
    """A query is malformed or names variables it may not use."""


class QueryParseError(InferenceError):
    """A query expression string could not be parsed."""


class NetworkFormatError(InferenceError):
    """A network document failed to parse or validate.

    Carries the 1-based line number of the offending input when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StateSpaceError(InferenceError):
    """A brute-force operation would exceed the configured cell cap."""
