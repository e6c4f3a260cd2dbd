"""Exception types raised across the package.

Everything derives from DebiasKitError so callers can catch the package's
failures with one except clause while still matching specific conditions.
An error is its type and its message: the message names the file and line,
the row, or the job, class and cell. ``located`` alone writes a file's path
into an input error's message; the raise sites give at most its line.
"""

from __future__ import annotations

from contextlib import contextmanager


class DebiasKitError(Exception):
    """Base class for all errors raised by this package."""


# --- input parsing and validation ---------------------------------------


class _InputError(DebiasKitError):
    """An input problem, at a line of its file when ``line`` is given;
    ``located`` reads ``line`` to place the file's path."""

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@contextmanager
def located(path: str):
    """Name ``path`` at the start of the message of an input error raised in
    the block: ``<path>:line N: ...`` for an error built with ``line``,
    ``<path>: ...`` otherwise."""
    try:
        yield
    except _InputError as exc:
        separator = ":" if exc.line is not None else ": "
        raise type(exc)(f"{path}{separator}{exc}") from exc


class ParseError(_InputError):
    """Malformed input text (bad JSON line, unreadable number, ...)."""


class ValidationError(_InputError):
    """Structurally readable input that violates a contract."""


class FormatError(_InputError):
    """Byte- or layout-level problem in an embedding file."""


class NonFiniteError(_InputError):
    """NaN or infinity where finite values are required."""


class InfeasibleSpecError(_InputError):
    """Synthetic-corpus spec admits no valid geometry."""


class IoError(DebiasKitError):
    """Filesystem-level failure wrapped with context."""


# --- statistics and linear algebra ---------------------------------------


class EmptyClassError(DebiasKitError):
    """A label state that the operation requires has no records."""


class DegenerateMeansError(DebiasKitError):
    """Group means coincide; no discriminant direction exists."""


class DimensionMismatchError(DebiasKitError):
    """Operands disagree on feature dimension."""


class ZeroVectorError(DebiasKitError):
    """A direction with zero norm cannot be normalised or correlated."""


class RankDeficientError(DebiasKitError):
    """Stacked directions do not span the requested rank."""


class InvalidGammaError(DebiasKitError):
    """Kernel width must be a positive finite number."""


class InsufficientSampleError(DebiasKitError):
    """Too few rows to estimate the requested statistic."""


class SingleClassError(DebiasKitError):
    """Ranking metrics need at least one positive and one negative."""


class FoldDegenerateError(DebiasKitError):
    """Stratified folding would produce a single-class fold."""


# --- reporting and orchestration -----------------------------------------


class IncompleteMatrixError(DebiasKitError):
    """A declared experiment cell is missing from the results."""


class LayoutError(DebiasKitError):
    """The requested rendering layout cannot be produced from this report."""


class LeakageError(DebiasKitError):
    """A test-split sample was consumed before evaluation."""


class PipelineError(DebiasKitError):
    """Module error propagated out of the pipeline with run context."""

    def __init__(self, message: str, *, strategy=None, scope=None, class_name=None, cell=None):
        bits = [
            f"{k}={v}"
            for k, v in (
                ("strategy", strategy),
                ("scope", scope),
                ("class", class_name),
                ("cell", cell),
            )
            if v is not None
        ]
        if bits:
            message = f"{message} [{', '.join(bits)}]"
        super().__init__(message)
