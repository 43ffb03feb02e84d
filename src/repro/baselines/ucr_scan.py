"""UCR Suite-P analog: early-abandoning sequential scan (paper Section V).

In the paper each thread scans its slice of the in-memory array with
SIMD distance kernels and early abandoning, synchronizing only at the
end; queries are processed one at a time (the exploratory-analysis
protocol MESSI/SOFA are also measured under). Here a Spark partition
plays the thread and this function is the per-slice scan.

Early abandoning is block-granular, matching a vectorized SIMD kernel:
the slice is scanned in blocks of ``_BLOCK_ROWS`` rows by the tree's
kernel ``ed2_batch(q, X, rows=, bound2=)``, which drops a row at the first
column cut where its partial distance passes ``TopK.bound2()`` so far.
"""
import numpy as np

from repro.core.distance import TopK, check_k, check_series, ed2_batch

# Rows per block; any value yields the same exact result.
_BLOCK_ROWS = 2048


def ucr_knn(X: np.ndarray, queries: np.ndarray, k: int = 1,
            ids: np.ndarray | None = None) -> list[list[tuple[float, int]]]:
    """Exact k-NN by a per-query early-abandoning scan.

    ``X``: (N, n) z-normalized data; ``queries``: (Q, n) z-normalized.
    Returns, per query, ``[(distance, id), ...]`` ascending (ties by id);
    ``[]`` per query for an empty ``X``. Raises ``ValueError`` for
    ``k < 1``, non-finite rows or queries, or queries whose length
    differs from the rows'.
    """
    check_k(k)
    X = np.atleast_2d(np.asarray(X))  # ed2_batch converts the slices it reads
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    check_series(X, "series")
    check_series(queries, "query", X.shape[1])
    ids = np.arange(len(X), dtype=np.int64) if ids is None else np.asarray(ids)
    out = []
    for q in queries:
        top = TopK(k)
        for lo in range(0, len(X), _BLOCK_ROWS):
            rows = np.arange(lo, min(lo + _BLOCK_ROWS, len(X)))
            top.push(ed2_batch(q, X, rows=rows, bound2=top.bound2()), ids[rows])
        out.append(top.pairs())
    return out
