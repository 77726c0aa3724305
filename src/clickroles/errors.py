"""Exception types shared across the toolkit.

DataError maps to CLI exit code 1 (bad or missing input data, or no C
compiler for topics), UsageError to exit code 2 (bad invocation).
"""


class DataError(Exception):
    """Input data violates a precondition (malformed line, empty table,
    duplicate key, missing file, ...), or the compiled loops cannot be
    built or loaded."""


class UsageError(Exception):
    """The invocation is wrong: a flag value its declaration rejects (the
    CLI parser), or a setting the data cannot take (LDA hyperparameters
    that overflow, a feature group with no columns)."""
