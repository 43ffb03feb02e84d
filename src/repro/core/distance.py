"""The exact distance kernel, the top-k and the input checks every engine shares.

- ``ed2_batch``: the one exact squared ED, from one query to the rows
  ``rows=`` of a collection: direct float64 differences summed over fixed
  column cuts, dropping a row once its running sum passes ``bound2``. It
  verifies the tree's survivors, the UCR scan's blocks and the flat scan's
  GEMM shortlist (``repro.baselines.flat_l2``), and gives the TLB
  experiment its true distances.
- ``TopK``: the one top-k of every exact search path, ordered by
  ``(d2, id)``, with GEMINI's keep test ``bound2()``.
- ``check_series`` / ``check_k``: reject non-finite or wrong-length input,
  which would otherwise turn into NaN distances and invented neighbours,
  and ``k < 1``.
- ``stored_rows``: the layout the tree and the Spark partitions keep rows
  in, float32 only where that loses nothing.
"""
import numpy as np


def ed2_batch(query: np.ndarray, data: np.ndarray, *, rows: np.ndarray,
              bound2: float = np.inf) -> np.ndarray:
    """Squared ED from ``query`` (n,) to ``data[rows]``, ``inf`` where abandoned.

    Returns (len(rows),) float64. Each row is summed over the column cuts
    ``[0, n/4)``, ``[n/4, n/2)`` and ``[n/2, n)``: float64 differences of
    only those columns, squared and summed per cut, added to a running
    sum. After each cut but the last, rows whose running sum exceeds
    ``bound2`` are dropped and come back as ``inf``.

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


#: Relative slack of every GEMINI keep test: a bound or distance is kept
#: while ``d2 <= bsf2 * PRUNE_SLACK``. A bound summed in another order than
#: the true distance may exceed it by round-off, and a candidate whose
#: bound ties the BSF may still win the tie on id.
PRUNE_SLACK = 1.0 + 1e-12


class TopK:
    """The ``k`` smallest ``(d2, id)`` pairs pushed so far, ascending.

    ``bound2()`` is the keep test of every exact path (the tree's leaf
    queue, series filter and ED bound, the UCR scan's blocks, the SQL
    plan's filter): a squared LBD or distance above it cannot enter the
    top-k. It is ``inf`` until ``k`` pairs are held.
    """

    def __init__(self, k: int):
        self.k = k
        self.d2 = np.empty(0)
        self.ids = np.empty(0, dtype=np.int64)

    def bound2(self) -> float:
        """Largest squared LBD or distance that can still hold a top-k answer."""
        return self.d2[-1] * PRUNE_SLACK if len(self.d2) == self.k else np.inf

    def push(self, d2: np.ndarray, ids: np.ndarray) -> None:
        """Merge the pairs whose ``d2`` passes ``bound2()``, then keep the
        ``k`` smallest by ``(d2, id)``."""
        keep = d2 <= self.bound2()
        d2, ids = np.append(self.d2, d2[keep]), np.append(self.ids, ids[keep])
        top = np.lexsort((ids, d2))[:self.k]
        self.d2, self.ids = d2[top], ids[top]

    def pairs(self) -> list[tuple[float, int]]:
        """``[(distance, id), ...]`` ascending, ties by id."""
        return [(float(d), int(i)) for d, i in zip(np.sqrt(self.d2), self.ids)]


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
