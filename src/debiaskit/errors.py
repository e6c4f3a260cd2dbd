"""Exception types raised across the package.

Everything derives from DebiasKitError so callers can catch the package's
failures with one except clause while still matching specific conditions.
An error is its type and its message: the message names the file and line,
the row, or the job, class and cell, and no attribute repeats them.
"""

from __future__ import annotations


class DebiasKitError(Exception):
    """Base class for all errors raised by this package."""


# --- input parsing and validation ---------------------------------------


class _InputError(DebiasKitError):
    """An input problem, located by file path and line when known."""

    def __init__(self, message: str, *, line: int | None = None, path: str | None = None):
        prefix = ""
        if path is not None:
            prefix += f"{path}:"
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


class ParseError(_InputError):
    """Malformed input text (bad JSON line, unreadable number, ...)."""


class ValidationError(_InputError):
    """Structurally readable input that violates a contract."""


class FormatError(DebiasKitError):
    """Byte- or layout-level problem in an embedding file."""


class NonFiniteError(DebiasKitError):
    """NaN or infinity where finite values are required."""


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


class InfeasibleSpecError(DebiasKitError):
    """Synthetic-corpus spec admits no valid geometry."""


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
