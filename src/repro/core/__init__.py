"""Core numeric kernels shared by summarizations, indexes, and baselines.

Everything operates on float32/float64 NumPy matrices of shape (N, n):
N series of length n. All similarity-search code in this repo assumes
series have been z-normalized up front (``znorm.znormalize``), after
which the paper's z-normalized Euclidean distance reduces to plain ED.
"""
from repro.core.znorm import znormalize
from repro.core.distance import ed2_batch

__all__ = ["znormalize", "ed2_batch"]
