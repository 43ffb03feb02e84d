"""FAISS IndexFlatL2 analog: exact batched brute force under L2.

FAISS's flat index answers query batches with a BLAS GEMM over the
``||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` identity plus a top-k
selection — no summarization, no pruning. The paper runs it with query
mini-batches sized to the core count; here the whole query batch hits
each partition at once and NumPy's BLAS plays MKL's role.
"""
import numpy as np

from repro.core.distance import check_series, ed2_batch


def flat_knn(X: np.ndarray, queries: np.ndarray, k: int = 1,
             ids: np.ndarray | None = None) -> list[list[tuple[float, int]]]:
    """Exact k-NN via one GEMM; same return shape as ``ucr_knn``.

    Raises ``ValueError`` for non-finite rows or queries, or queries
    whose length differs from the rows'.
    """
    X = np.atleast_2d(X)
    queries = np.atleast_2d(queries)
    check_series(X, "series")
    check_series(queries, "query", X.shape[1])
    ids = np.arange(len(X), dtype=np.int64) if ids is None else np.asarray(ids)
    kk = min(k, len(X))
    d2 = ed2_batch(queries, X)  # (Q, N)
    out = []
    for row in d2:
        # every row tied with the k-th distance stays a candidate, so the
        # (dist, id) order decides which of them make the cut
        cand = np.nonzero(row <= np.partition(row, kk - 1)[kk - 1])[0]
        top = cand[np.lexsort((ids[cand], row[cand]))[:kk]]
        out.append([(float(np.sqrt(row[p])), int(ids[p])) for p in top])
    return out
