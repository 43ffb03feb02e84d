"""Shared test utilities: data factories, a brute-force oracle, the DuckDB
k-NN query over exploded series, the scalar Eq. 2 reference the batched
LBD kernels are checked against, the per-position searchsorted
reference of the word quantizer and the Python-int reference of the
z-order sort."""
import numpy as np
import pandas as pd

from repro.core.znorm import znormalize


def znormed(n_series: int, length: int, seed: int = 0) -> np.ndarray:
    """Random z-normalized float32 series batch."""
    g = np.random.default_rng(seed)
    return znormalize(g.standard_normal((n_series, length)).astype(np.float32))


def brute_knn(X: np.ndarray, q: np.ndarray, k: int,
              ids: np.ndarray | None = None) -> list[tuple[float, int]]:
    """Ground-truth k-NN: (distance, id) ascending, ties broken by id.

    Distances are summed from direct float64 differences, row by row, not
    through the GEMM identity, so copies of a row get bit-equal distances
    and their order falls to the id. ``ids`` default to row positions.
    """
    diff = np.asarray(X, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", diff, diff)
    ids = np.arange(len(X)) if ids is None else np.asarray(ids)
    order = np.lexsort((ids, d2))[:k]
    return [(float(np.sqrt(d2[i])), int(ids[i])) for i in order]


def long_table(mat: np.ndarray, idcol: str, ids: np.ndarray | None = None) -> pd.DataFrame:
    """Explode a series matrix to (id, pos, value) rows for the SQL oracle;
    ``ids`` default to row positions."""
    n, ln = mat.shape
    ids = np.arange(n) if ids is None else np.asarray(ids)
    return pd.DataFrame({
        idcol: np.repeat(ids, ln),
        "pos": np.tile(np.arange(ln), n),
        "value": mat.astype(np.float64).ravel(),
    })


#: Brute-force k-NN in SQL over ``data_long`` / ``queries_long`` tables made
#: by ``long_table``, ranked by ``(d2, series_id)``.
KNN_SQL = """
WITH d AS (
  SELECT q.query_id, s.series_id,
         SUM((q.value - s.value) * (q.value - s.value)) AS d2
  FROM queries_long q JOIN data_long s USING (pos)
  GROUP BY q.query_id, s.series_id
)
SELECT query_id, series_id, SQRT(d2) AS dist,
       ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY d2, series_id) AS rank
FROM d QUALIFY rank <= {k}
"""


def mindist2_ref(qvals, word, edges, weights) -> float:
    """Scalar reference of Eq. 2 with explicit branches — the ground truth
    the batched kernels are tested against."""
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


def words_ref(a, edges) -> np.ndarray:
    """Per-position ``np.searchsorted`` over the interior edges, written
    apart from ``words_from_approx`` — the symbols it must reproduce."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    out = np.empty(a.shape, dtype=np.uint8)
    for j in range(a.shape[1]):
        # interval [edges[s], edges[s+1]) -> side='right' on interior edges
        out[:, j] = np.searchsorted(edges[j, 1:-1], a[:, j], side="right")
    return out


def zorder_ref(words, word_bits: int) -> np.ndarray:
    """Rows of ``words`` (N, l) sorted by ``(key, row)``, where ``key`` is
    the Python int whose bits, MSB-first, are bit ``word_bits - 1 - p`` of
    symbol ``j`` at place ``p * l + j`` — the order ``_zorder`` must give."""
    words = np.asarray(words, dtype=np.int64)

    def key(word) -> int:
        bits = [(int(word[j]) >> (word_bits - 1 - p)) & 1
                for p in range(word_bits) for j in range(len(word))]
        return int("".join(map(str, bits)) or "0", 2)

    keys = [key(w) for w in words]
    return np.array(sorted(range(len(words)), key=lambda r: (keys[r], r)), dtype=np.intp)
