"""Euclidean distance kernels, the top-k and the input checks every engine shares.

- ``ed2`` / ``ed``: scalar reference (tests, small paths).
- ``ed2_batch``: exact batch squared ED. Given two batches it uses the
  GEMM identity ``||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` (the FAISS
  IndexFlatL2 analog's shortlist, the TLB experiment). Given one query, a
  collection and ``rows=``, it verifies the tree's survivors and the UCR
  scan's blocks by early abandoning: direct float64 differences summed over
  fixed column cuts, dropping a row once its running sum passes ``bound2``.
- ``select_topk``: the one top-k of every engine, ordered by ``(d2, id)``.
- ``check_series`` / ``check_k``: reject non-finite or wrong-length input,
  which would otherwise turn into NaN distances and invented neighbours,
  and ``k < 1``.
- ``stored_rows``: the layout the tree and the Spark partitions keep rows
  in, float32 only where that loses nothing.
"""
import numpy as np


def ed2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two series of equal length."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.dot(d, d))


def ed(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two series of equal length."""
    return float(np.sqrt(ed2(a, b)))


def ed2_batch(queries: np.ndarray, data: np.ndarray, *, rows: np.ndarray | None = None,
              bound2: float = np.inf) -> np.ndarray:
    """Exact squared ED between every query and every data series.

    ``queries`` is (Q, n), ``data`` is (N, n); returns (Q, N) float64.
    Uses the GEMM identity; negative round-off is clipped to 0 so callers
    can take square roots safely.

    With ``rows``, ``queries`` is one series (n,) and the result is the
    (len(rows),) squared ED from it to ``data[rows]``, early-abandoned
    against ``bound2``: see ``_ed2_abandon``.
    """
    if rows is not None:
        return _ed2_abandon(queries, data, rows, bound2)
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    x = np.atleast_2d(np.asarray(data, dtype=np.float64))
    qq = np.einsum("ij,ij->i", q, q)[:, None]
    xx = np.einsum("ij,ij->i", x, x)[None, :]
    d2 = qq + xx - 2.0 * (q @ x.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _ed2_abandon(query: np.ndarray, data: np.ndarray, rows: np.ndarray,
                 bound2: float) -> np.ndarray:
    """Squared ED from ``query`` to ``data[rows]``, ``inf`` where abandoned.

    Each row is summed over the column cuts ``[0, n/4)``, ``[n/4, n/2)``
    and ``[n/2, n)``: float64 differences of only those columns, squared
    and summed per cut, added to a running sum. After each cut but the
    last, rows whose running sum exceeds ``bound2`` are dropped and come
    back as ``inf``.

    Exactness: rounded addition of non-negative terms never decreases, so
    a dropped row's full distance also exceeds ``bound2``. Every row is
    summed over the same cuts in the same order whatever ``bound2`` is, so
    equal rows get bit-equal distances and ties can fall to the id.
    """
    q = np.asarray(query, dtype=np.float64).ravel()
    n = len(q)
    src = np.asarray(rows, dtype=np.intp)
    acc = np.zeros(len(src))
    live = None  # positions in ``rows`` still summed; None while all are
    for lo, hi in ((0, n // 4), (n // 4, n // 2), (n // 2, n)):
        diff = data[src, lo:hi].astype(np.float64)
        diff -= q[lo:hi]
        acc += np.einsum("ij,ij->i", diff, diff)
        if hi < n and bound2 < np.inf:
            keep = np.flatnonzero(acc <= bound2)
            if len(keep) < len(acc):
                live = keep if live is None else live[keep]
                src, acc = src[keep], acc[keep]
    if live is None:
        return acc
    out = np.full(len(rows), np.inf)
    out[live] = acc
    return out


def select_topk(d2: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest ``(d2, id)`` pairs, in that order.

    Callers pass only rows that can still enter the top-k, so a full sort
    stays short."""
    return np.lexsort((ids, d2))[:k]


def check_k(k: int) -> None:
    """Raise ``ValueError`` unless ``k >= 1``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def check_series(x: np.ndarray, what: str, length: int | None = None) -> None:
    """Raise ``ValueError`` unless every value of the (N, n) batch ``x`` is
    finite and, when ``length`` is given, ``n == length``."""
    if length is not None and x.shape[1] != length:
        raise ValueError(f"{what} length {x.shape[1]} != series length {length}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} values must be finite (found NaN or inf)")


def stored_rows(X: np.ndarray) -> np.ndarray:
    """``X`` as a C-contiguous (N, n) matrix: float32 when every value
    survives the round trip to float32 (float32 input is not copied), else
    float64, so that rows closer than float32 resolution stay distinct."""
    X = np.atleast_2d(X)
    if X.dtype == np.float32:
        return np.ascontiguousarray(X)
    with np.errstate(over="ignore"):  # values beyond float32's range stay float64
        narrow = X.astype(np.float32, order="C")
    return narrow if np.array_equal(narrow, X) else np.ascontiguousarray(X, dtype=np.float64)
