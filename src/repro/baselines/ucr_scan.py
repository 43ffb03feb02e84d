"""UCR Suite-P analog: early-abandoning sequential scan (paper Section V).

In the paper each thread scans its slice of the in-memory array with
SIMD distance kernels and early abandoning, synchronizing only at the
end; queries are processed one at a time (the exploratory-analysis
protocol MESSI/SOFA are also measured under). Here a Spark partition
plays the thread and this function is the per-slice scan.

Early abandoning is block-granular, matching a vectorized SIMD kernel:
for each block of rows the partial distance over the first
``head`` points is computed first, rows already above the BSF are
dropped, and only survivors get the full distance — the NumPy analog of
abandoning a series mid-scan.
"""
import heapq

import numpy as np

from repro.core.distance import check_series, ed2_batch


def ucr_knn(X: np.ndarray, queries: np.ndarray, k: int = 1,
            ids: np.ndarray | None = None, *, block: int = 512,
            head: int = 32) -> list[list[tuple[float, int]]]:
    """Exact k-NN by a per-query early-abandoning scan.

    ``X``: (N, n) z-normalized data; ``queries``: (Q, n) z-normalized.
    Returns, per query, ``[(distance, id), ...]`` ascending (ties by id).
    Raises ``ValueError`` for non-finite rows or queries, or queries
    whose length differs from the rows'.
    """
    X = np.atleast_2d(np.asarray(X))  # ed2_batch converts the slices it reads
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    check_series(X, "series")
    check_series(queries, "query", X.shape[1])
    ids = np.arange(len(X), dtype=np.int64) if ids is None else np.asarray(ids)
    n = X.shape[1]
    kk = min(k, len(X))
    head = min(head, n)
    out = []
    for q in queries:
        best: list[tuple[float, int]] = []  # (-d2, -id) max-heap of current k
        for lo in range(0, len(X), block):
            rows = slice(lo, min(lo + block, len(X)))
            bsf2 = -best[0][0] if len(best) == kk else np.inf
            part = ed2_batch(q[None, :head], X[rows, :head])[0]
            alive = np.nonzero(part <= bsf2)[0]
            if len(alive) == 0:
                continue
            d2 = part[alive]
            if head < n:
                d2 = d2 + ed2_batch(q[None, head:], X[rows][alive][:, head:])[0]
            for dd, ridx in zip(d2.tolist(), alive.tolist()):
                item = (-dd, -int(ids[lo + ridx]))
                if len(best) < kk:
                    heapq.heappush(best, item)
                elif item > best[0]:
                    heapq.heapreplace(best, item)
        out.append(sorted((float(np.sqrt(-nd2)), -nid) for nd2, nid in best))
    return out
