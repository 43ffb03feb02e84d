"""z-normalization of data series.

The paper (Def. 2) measures similarity with the z-normalized Euclidean
distance. We z-normalize every series once at ingest; downstream code
then uses plain Euclidean distance, exactly as MESSI/SOFA do.
"""
import numpy as np

#: Below this standard deviation a series is treated as constant and its
#: z-normalized form is the all-zeros series (matches the UCR suite's
#: guard against division blow-up on flat series).
EPS = 1e-8


def znormalize(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Return ``(x - mean) / std`` along ``axis`` with a flat-series guard.

    Accepts a single series ``(n,)`` or a batch ``(N, n)``. Output dtype is
    float64 for single/float64 input, float32 preserved for float32 input
    (the in-memory index stores float32 rows, like MESSI's C arrays, when
    that rounds no value).
    """
    x = np.asarray(x)
    mu = x.mean(axis=axis, keepdims=True)
    sd = x.std(axis=axis, keepdims=True)
    out = np.where(sd > EPS, (x - mu) / np.where(sd > EPS, sd, 1.0), 0.0)
    return out.astype(x.dtype if x.dtype == np.float32 else np.float64)
