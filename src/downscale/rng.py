"""Deterministic, named random-number streams.

Every random draw in the pipeline comes from a stream derived from one
64-bit master seed plus a tuple of string/int labels (e.g. the phase name
and the aggregation-unit id).  Identical (seed, labels) always yield an
identical generator, independent of execution order, which is what makes
reruns byte-identical and a unit's draws independent of which other units
are sampled.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, *labels) -> np.random.Generator:
    """Return a PCG64 generator keyed by ``seed`` and the given labels."""
    tag = "|".join(str(part) for part in labels)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed & _MASK64, *words])))


class RngFactory:
    """Small convenience wrapper carrying the master seed around."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, *labels) -> np.random.Generator:
        return stream(self.seed, *labels)


def draw_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized categorical draw: one class index per row of ``probs``.

    Rows need not be normalized; ``u`` supplies one uniform per row.
    """
    return draw_classes(np.array(np.asarray(probs, dtype=float).T, order="C"), u)


def draw_classes(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``draw_rows`` for weights stored classes x rows, which it overwrites with their
    running sums: taken class by class, these are the additions of a cumulative sum
    along each row, in the same order, so every row draws the same class bit for bit.
    """
    for k in range(1, len(weights)):
        weights[k] += weights[k - 1]
    idx = np.count_nonzero(weights < u * weights[-1], axis=0)
    return np.minimum(idx, len(weights) - 1).astype(np.int64)
