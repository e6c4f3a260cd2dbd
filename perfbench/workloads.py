"""The benchmark's workloads: corpus, `debiaskit matrix` arguments and the
layers each one is expected to exercise.

Every workload starts from the stock corpus ``default_spec(seed)`` and
changes only ``dim`` and ``samples_per_cell``. The benchmark's seed is the
corpus seed unless the workload fixes ``corpus_seed``; it is always the
master seed in ``config.json``. The reasons for each choice
and the layer -> metric -> workload predictions are in README.md.
"""

from __future__ import annotations

SETUP_REPEATS = 3  # set-ups per run; setup_s is their median

# Layers whose public functions the traced run wraps. `seeding` and `errors`
# do negligible work and `synth` runs only during set-up.
MATRIX_LAYERS = (
    "cli",
    "pipeline",
    "data",
    "guard",
    "kernel",
    "bias",
    "projection",
    "logreg",
    "metrics",
    "report",
)
NO_KERNEL_LAYERS = tuple(layer for layer in MATRIX_LAYERS if layer != "kernel")

WORKLOADS = {
    # The README quick start: its corpus (the default seed) and the default
    # 13-C x 5-fold grid, cut to the baseline plus global LDA so that several
    # invocations fit in one run. Logistic-regression CV dominates. The seed
    # varies the run's master seed only: across corpus seeds the baseline's
    # solver work alone varies by almost 2x, which would swamp timing changes.
    "quickstart": {
        "corpus_seed": 20240901,
        "spec": {},
        "format": "csv",
        "strategies": "LDA",
        "scopes": "global",
        "config": {},
        "jobs": ("none:global", "LDA:global"),
        "gap_check": True,
        "layers": NO_KERNEL_LAYERS,
    },
    # Many clips at a narrow grid: loading and manifest alignment dominate;
    # no kernel work at all.
    "many-clips": {
        "spec": {"dim": 256, "samples_per_cell": 500},
        "format": "binary",
        "strategies": "LDA",
        "scopes": "global",
        "config": {"c_grid": [1.0], "cv_folds": 2},
        "jobs": ("none:global", "LDA:global"),
        "gap_check": False,
        "layers": NO_KERNEL_LAYERS,
    },
    # 512-dim inputs mapped to 2048 random features: the lazily re-run
    # random-feature transform and the wide discriminant fit dominate.
    "wide-kernel": {
        "spec": {"dim": 512, "samples_per_cell": 250},
        "format": "binary",
        "strategies": "KLDA",
        "scopes": "global",
        "config": {"c_grid": [1.0], "cv_folds": 2},
        "jobs": ("none:global", "KLDA:global"),
        "gap_check": False,
        "layers": MATRIX_LAYERS,
    },
}


def projecting_jobs(workload: dict) -> tuple[str, ...]:
    """Jobs whose strategy removes a bias direction (all but the baselines)."""
    return tuple(job for job in workload["jobs"] if job.split(":")[0] not in ("none", "K"))
