"""FAISS IndexFlatL2 analog: exact batched brute force under L2.

FAISS's flat index answers query batches with a BLAS GEMM over the
identity ``||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` plus a top-k
selection: no summarization, no pruning. The paper runs it with query
mini-batches sized to the core count. Here a call copies the rows to
float64 and takes their squared norms once, then runs one GEMM per block
of ``QUERY_BLOCK`` queries (``_gemm_ed2``); NumPy's BLAS plays MKL's role.
The identity's round-off is absolute, about eps (|q|^2 + |x|^2), so its
values only shortlist: the rows within its error bound of the k-th value
are measured again by ``ed2_batch``'s direct float64 differences, so
that float duplicates tie exactly and fall to the id.
"""
import numpy as np

from repro.core.distance import TopK, check_k, check_series, ed2_batch

#: queries per GEMM: a call holds one (QUERY_BLOCK, N) float64 block of
#: distances at a time, so its memory does not grow with the query batch
QUERY_BLOCK = 64


def flat_knn(X: np.ndarray, queries: np.ndarray, k: int = 1,
             ids: np.ndarray | None = None) -> list[list[tuple[float, int]]]:
    """Exact k-NN via one GEMM per query block; same return shape as ``ucr_knn``.

    Raises ``ValueError`` for ``k < 1``, non-finite rows or queries, or
    queries whose length differs from the rows'.
    """
    check_k(k)
    X = np.atleast_2d(X)
    queries = np.atleast_2d(queries)
    check_series(X, "series")
    check_series(queries, "query", X.shape[1])
    if len(X) == 0:
        return [[] for _ in queries]
    ids = np.arange(len(X), dtype=np.int64) if ids is None else np.asarray(ids)
    kk = min(k, len(X))
    # A GEMM value is off by at most (n + 2) eps (|q|^2 + |x|^2) (dot-product
    # error bound), and a row that can tie the true k-th distance has
    # |x| <= |q| + sqrt(kth), so it lies within twice that bound of the k-th
    # GEMM value; 8 n eps leaves room for the re-measure's own round-off.
    err = 8.0 * X.shape[1] * np.finfo(np.float64).eps
    X = np.asarray(X, dtype=np.float64)
    xx = np.einsum("ij,ij->i", X, X)
    out = []
    for lo in range(0, len(queries), QUERY_BLOCK):
        block = queries[lo:lo + QUERY_BLOCK]
        for q, row in zip(block, _gemm_ed2(block, X, xx)):
            qq = float(np.dot(q, q.astype(np.float64)))
            kth = np.partition(row, kk - 1)[kk - 1]
            cand = np.flatnonzero(row <= kth + err * (qq + (np.sqrt(qq) + np.sqrt(kth)) ** 2))
            top = TopK(kk)
            top.push(ed2_batch(q, X, rows=cand), ids[cand])
            out.append(top.pairs())
    return out


def _gemm_ed2(queries: np.ndarray, X: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Squared ED (Q, N) from ``queries`` (Q, n) to the float64 rows ``X``
    (N, n), whose squared norms are ``xx``, by the GEMM identity. Negative
    round-off is clipped to 0, so the shortlist bound can take square roots."""
    q = np.asarray(queries, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", q, q)[:, None] + xx - 2.0 * (q @ X.T)
    np.maximum(d2, 0.0, out=d2)
    return d2
