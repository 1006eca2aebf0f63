"""Exception types shared across the package."""


class DatasetError(ValueError):
    """Raised for malformed or inconsistent linking datasets."""


class FetchError(RuntimeError):
    """Raised when a candidate lookup fails.

    ``retriable`` is True when the failure was a network problem that
    exhausted all attempts, False for malformed responses.
    """

    def __init__(self, message, retriable=False):
        super().__init__(message)
        self.retriable = retriable


class FeatureError(ValueError):
    """Raised for feature computation problems (unknown ids, bad catalogs)."""


class ParseError(ValueError):
    """Rule DSL syntax error with source position."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class CompileError(ValueError):
    """Raised when a rule AST cannot be compiled against a catalog."""


class TemplateError(KeyError, CompileError):
    """An unknown template name: a KeyError shown as its message, and a CompileError."""
    __str__ = CompileError.__str__


class TrainingDivergence(RuntimeError):
    """Raised when the training loss blows up; carries the epoch log."""

    def __init__(self, message, log):
        super().__init__(message)
        self.log = log
