"""Deterministic derivation of per-purpose seeds from one master seed.

Every stochastic step (subsampling, random features, CV folds) gets its own
seed derived from the master via a labelled hash, so re-running a config
reproduces byte-identical results and adding a new consumer never shifts the
streams of existing ones.
"""

from __future__ import annotations

import hashlib

# Purposes derived for every run from its master seed, the one seed a report records.
RUN_PURPOSES = ("sampling", "rff", "cv")


def derive_seed(master: int, label: str) -> int:
    """Map (master seed, label) to a 63-bit seed, stable across runs and platforms."""
    digest = hashlib.sha256(f"{master}|{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def derive_run_seeds(master: int) -> dict[str, int]:
    """The standard per-purpose seeds for one experiment run."""
    return {purpose: derive_seed(master, purpose) for purpose in RUN_PURPOSES}
