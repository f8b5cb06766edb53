"""Shared exception types.

Sizing and format problems are usage errors (the CLI maps them to exit
status 2); an InconsistencyError (a failed verification claim) or a
WorkerError (a dead cross-validate worker) is reported with exit status 1.
"""


class SizingError(ValueError):
    """A requested computation exceeds its configured cap."""


class PartitionFormatError(ValueError):
    """A partition (or matrix) file does not match the documented schema."""


class InconsistencyError(RuntimeError):
    """The non-schurian criterion contradicted the automorphism oracle."""


class WorkerError(RuntimeError):
    """A forked cross-validate worker died or exited with a nonzero status."""
