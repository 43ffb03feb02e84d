"""Piecewise Aggregate Approximation (PAA), Keogh et al. 2001.

Supports series lengths not divisible by the segment count via
``np.array_split``-style near-equal segments, whose sums come from one
``np.add.reduceat`` over the segment starts; the lower bound then uses
per-segment lengths as weights:

    ed2(A, B) >= sum_j len_j * (paa(A)_j - paa(B)_j)^2

which holds per segment by the Cauchy-Schwarz inequality.
"""
import numpy as np


def segment_bounds(n: int, l: int) -> np.ndarray:
    """Boundaries of ``l`` near-equal segments of ``range(n)`` — length l+1."""
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    return np.linspace(0, n, l + 1).round().astype(np.int64)


def segment_lengths(n: int, l: int) -> np.ndarray:
    """Length of each PAA segment, the weights of the PAA lower bound."""
    return np.diff(segment_bounds(n, l)).astype(np.float64)


def paa(x: np.ndarray, l: int) -> np.ndarray:
    """PAA of a batch ``(N, n)`` (or a single series) -> ``(N, l)`` float64.

    Each segment is summed straight from ``x`` in float64 (no float64 copy
    of ``x``, no running sum), then divided by its length.
    """
    x = np.atleast_2d(x)
    b = segment_bounds(x.shape[1], l)
    return np.add.reduceat(x, b[:-1], axis=1, dtype=np.float64) / np.diff(b)

