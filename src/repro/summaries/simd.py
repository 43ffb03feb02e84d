"""Batched lower-bound distance kernels (paper Section IV-H).

The paper's Algorithm 3 vectorizes Eq. 2 with SIMD: gather each symbol's
[LOWER, UPPER) interval (``Gather_bound``), build UPPER/LOWER/ZERO
condition masks, combine each branch's distance under its mask, and
early-abandon after each 8-wide chunk.

This module applies ``Gather_bound`` and the mask combine once per
*symbol* instead of once per row: one query fixes ``q_j``, so every
possible ``mindist(q_j, bin a)^2`` fits an ``(l, alphabet)`` table (the
asymmetric-distance table of product quantization, Jegou et al., TPAMI
2011), and the bound of a word is one gather of ``l`` entries and a
``w_j``-weighted sum, with no branch and no compare. The Spark SQL plan of
``repro.distrib.transform`` ships the weighted table as a literal and sums
the same entries. Table row ``j`` is 0 at the query's symbol and never
decreases away from it, so a leaf's symbol box ``[lo_j, hi_j]`` is bounded
by the entry at the query's symbol clipped into the box.

All functions take the *query side* as numeric approx values (PAA means
for iSAX / scaled DFT components for SFA) and the *candidate side* as
symbols or symbol boxes, plus the summary's ``edges``/``weights``. They return
squared lower bounds; callers compare them with ``TopK.bound2()`` of
``repro.core.distance``, the keep test of every exact path.
"""
import numpy as np


def mindist2_table(qvals, edges) -> np.ndarray:
    """Squared distance from ``q_j`` to every bin: the (l, alphabet) table.

    ``d[j, a] = max(lo - q_j, q_j - hi, 0)`` over bin ``a = [lo, hi)``
    (never ``inf * 0``, so the +-inf edges give finite terms), squared.
    This is Algorithm 3's ``Gather_bound`` step run once per symbol
    rather than once per word.
    """
    q = np.asarray(qvals, dtype=np.float64)[:, None]
    d = np.maximum(edges[:, :-1] - q, q - edges[:, 1:])
    np.maximum(d, 0.0, out=d)
    d *= d
    return d


def batch_mindist2(qvals, words, edges, weights, *, table=None) -> np.ndarray:
    """Squared LBD (Eq. 2) between one query and ``N`` words.

    ``qvals``: (l,) float; ``words``: (N, l) symbols; ``edges``:
    (l, alphabet+1) with +-inf ends; returns (N,) float64.

    Each row gathers its ``l`` entries of ``mindist2_table`` at flat
    offsets ``words + j * alphabet`` and weights them in one
    matrix-vector product. A caller that bounds many batches for one
    query passes the query's table, ``mindist2_table(qvals, edges)``, as
    ``table`` so it is built once.
    """
    words = np.atleast_2d(words)
    l, alphabet = edges.shape[0], edges.shape[1] - 1
    offsets = np.arange(0, l * alphabet, alphabet, dtype=np.int32)
    if table is None:
        table = mindist2_table(qvals, edges)
    return np.take(table.ravel(), words + offsets) @ np.asarray(weights, dtype=np.float64)


def batch_interval_mindist2(qvals, lo, hi, edges, weights, *, table=None) -> np.ndarray:
    """Squared LBD between one query and ``R`` symbol boxes at once.

    ``lo``/``hi``: (R, l) smallest/largest symbol of each box position,
    both inclusive. Used by the index to bound ALL leaf boxes in one
    vectorized pass: a box's bound is ``batch_mindist2`` of its word
    nearest the query, ``clip(qsym_j, lo_j, hi_j)``, where ``qsym_j`` is the
    first zero of the query's table row ``j``. ``table`` as for
    ``batch_mindist2``.
    """
    if table is None:
        table = mindist2_table(qvals, edges)
    nearest = np.minimum(np.maximum(table.argmin(axis=1), lo), hi)
    return batch_mindist2(qvals, nearest, edges, weights, table=table)
