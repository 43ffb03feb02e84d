"""Branchless, batched lower-bound distance kernels (paper Section IV-H).

The paper's Algorithm 3 vectorizes Eq. 2 with SIMD: gather each symbol's
[LOWER, UPPER) interval, build UPPER/LOWER/ZERO condition masks, AND
each branch's distance with its mask, combine, and early-abandon after
each 8-wide chunk. NumPy's vectorized ufuncs over contiguous arrays are
the single-node Python analog: the same mask dataflow, no per-element
Python branching.

All functions take the *query side* as numeric approx values (PAA means
for iSAX / scaled DFT components for SFA) and the *candidate side* as
symbols, plus the summary's ``edges``/``weights``. They return squared
lower bounds; callers compare against squared BSF.
"""
import numpy as np


def mindist2_ref(qvals, word, edges, weights) -> float:
    """Scalar reference of Eq. 2 with explicit branches — the ground truth
    the branchless kernels are tested against."""
    total = 0.0
    for j in range(len(word)):
        lo = edges[j, word[j]]
        hi = edges[j, word[j] + 1]
        v = qvals[j]
        if v < lo:
            d = lo - v
        elif v > hi:
            d = v - hi
        else:
            d = 0.0
        total += weights[j] * d * d
    return float(total)


def batch_mindist2(qvals, words, edges, weights) -> np.ndarray:
    """Squared LBD between one query and ``N`` words — branchless.

    ``qvals``: (l,) float; ``words``: (N, l) uint8; returns (N,) float64.
    Mirrors Algorithm 3's mask construction: gathers are the
    ``Gather_bound`` step, the two ``np.where``-free mask-multiplies are
    the ``(V_DL and V_ML) or (V_DU and V_MU)`` combine.
    """
    words = np.atleast_2d(words)
    l = words.shape[1]
    cols = np.arange(l)[None, :]
    lo = edges[cols, words.astype(np.int64)]          # V_B_L
    hi = edges[cols, words.astype(np.int64) + 1]      # V_B_U
    q = np.asarray(qvals, dtype=np.float64)[None, :]  # V_F_Q
    # Mask-blend (SIMD select) rather than mask-multiply: the boundary bins
    # have +-inf edges and IEEE inf*0 is NaN, so blending is the correct
    # analog of Algorithm 3's AND/OR combine.
    d_low = np.where(q < lo, lo - q, 0.0)             # LOWER branch, masked
    d_up = np.where(q > hi, q - hi, 0.0)              # UPPER branch, masked
    d = d_low + d_up                                  # ZERO branch contributes 0
    return np.einsum("ij,j->i", d * d, np.asarray(weights, dtype=np.float64))


def batch_interval_mindist2(qvals, lo, hi, weights) -> np.ndarray:
    """Squared LBD between one query and ``R`` interval boxes at once.

    ``lo``/``hi``: (R, l) lower/upper breakpoints (+-inf allowed). Used by
    the index to bound ALL leaf boxes in one vectorized pass instead of
    R scalar calls — the SIMD analog at the leaf level.
    """
    q = np.asarray(qvals, dtype=np.float64)[None, :]
    d = np.where(q < lo, lo - q, 0.0) + np.where(q > hi, q - hi, 0.0)
    return np.einsum("ij,j->i", d * d, np.asarray(weights, dtype=np.float64))
