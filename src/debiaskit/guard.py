"""Train/test isolation instrumentation.

Every read of embedding rows inside the pipeline goes through a guard that
knows which clip indices belong to the held-out split and which phase the
pipeline is in. The pipeline enters the fitting phases standardize, kernel
(kernel-space strategies only), bias and train (model selection and final
fits), then evaluate. Touching held-out rows during any fitting phase raises
immediately; only the scoring phase may read them. Pooling runs before any
guard exists, so ``pool`` is only the phase a guard starts in. The guard
counts the reads, rows and held-out rows per phase, so a run can prove after
the fact that isolation held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LeakageError

PHASE_POOL = "pool"
PHASE_STANDARDIZE = "standardize"
PHASE_KERNEL = "kernel"
PHASE_BIAS = "bias"
PHASE_TRAIN = "train"
PHASE_EVALUATE = "evaluate"

FIT_PHASES = (PHASE_POOL, PHASE_STANDARDIZE, PHASE_KERNEL, PHASE_BIAS, PHASE_TRAIN)
ALL_PHASES = FIT_PHASES + (PHASE_EVALUATE,)

_NO_ROWS = np.empty(0, dtype=np.intp)  # held-out rows of a dataset the guard does not know


@dataclass
class SplitGuard:
    """Tracks the active phase and counts row reads per phase."""

    test_indices: dict[str, np.ndarray]
    phase: str = PHASE_POOL
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.test_indices = {
            name: np.asarray(idx, dtype=np.intp) for name, idx in self.test_indices.items()
        }

    def enter(self, phase: str) -> None:
        if phase not in ALL_PHASES:
            raise ValueError(f"unknown pipeline phase {phase!r}")
        self.phase = phase

    def check(self, dataset: str, indices: np.ndarray) -> None:
        """Count a read; reject held-out rows outside the scoring phase."""
        indices = np.asarray(indices).ravel()
        test_mask = np.isin(indices, self.test_indices.get(dataset, _NO_ROWS))
        touched = indices[test_mask]
        bucket = self.counts.setdefault(self.phase, {"reads": 0, "rows": 0, "test_rows": 0})
        bucket["reads"] += 1
        bucket["rows"] += indices.size
        bucket["test_rows"] += touched.size
        if touched.size and self.phase != PHASE_EVALUATE:
            raise LeakageError(
                f"held-out rows of {dataset!r} read during phase {self.phase!r}: "
                f"indices {np.sort(touched)[:5].tolist()}{'...' if touched.size > 5 else ''}"
            )

    def audit(self) -> dict:
        """Summary suitable for writing next to run outputs; a copy, so the
        guard's own counts do not change with it."""
        per_phase = {phase: dict(bucket) for phase, bucket in self.counts.items()}
        fit_test_rows = sum(
            per_phase.get(p, {}).get("test_rows", 0) for p in FIT_PHASES
        )
        return {
            "phases": per_phase,
            "test_rows_read_during_fit": fit_test_rows,
            "clean": fit_test_rows == 0,
        }
