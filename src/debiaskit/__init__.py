"""Dataset-identity bias removal for pooled audio-style embeddings.

The package estimates the direction(s) along which two data collections
separate in an embedding space, removes them by orthogonal projection
(optionally inside a random-feature kernel space and optionally per
downstream class), and measures the effect on cross-collection transfer of
per-class linear classifiers.
"""

__version__ = "0.1.0"
