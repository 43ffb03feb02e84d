"""Euclidean distance kernels and the input check every engine shares.

- ``ed2`` / ``ed``: scalar reference (tests, small paths).
- ``ed2_batch``: exact batch squared ED via the GEMM identity
  ``||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b``. It is the FAISS IndexFlatL2
  analog, the tree's survivor verification, and the UCR scan's
  block-granular early abandoning (a partial ED over a prefix, then the
  rest for survivors).
- ``check_series``: rejects non-finite or wrong-length input, which would
  otherwise turn into NaN distances and invented neighbours.
"""
import numpy as np


def ed2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two series of equal length."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.dot(d, d))


def ed(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two series of equal length."""
    return float(np.sqrt(ed2(a, b)))


def ed2_batch(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Exact squared ED between every query and every data series.

    ``queries`` is (Q, n), ``data`` is (N, n); returns (Q, N) float64.
    Uses the GEMM identity; negative round-off is clipped to 0 so callers
    can take square roots safely.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    x = np.atleast_2d(np.asarray(data, dtype=np.float64))
    qq = np.einsum("ij,ij->i", q, q)[:, None]
    xx = np.einsum("ij,ij->i", x, x)[None, :]
    d2 = qq + xx - 2.0 * (q @ x.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def check_series(x: np.ndarray, what: str, length: int | None = None) -> None:
    """Raise ``ValueError`` unless every value of the (N, n) batch ``x`` is
    finite and, when ``length`` is given, ``n == length``."""
    if length is not None and x.shape[1] != length:
        raise ValueError(f"{what} length {x.shape[1]} != series length {length}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} values must be finite (found NaN or inf)")
