"""iSAX — the static symbolic representation (paper Section IV-D).

PAA over ``l`` segments, then fixed equal-depth quantization of the
N(0,1) distribution: breakpoints are standard-normal quantiles at
i/alphabet. Doubling the alphabet refines every bin by splitting it at
an interior quantile, so the breakpoint sets are hierarchical — exactly
what iSAX's variable-cardinality words assume.

No scipy in this container, so the normal quantile function is Acklam's
rational approximation (~1.15e-9 relative error, far below what
breakpoint placement needs).
"""
import numpy as np

from repro.summaries.common import SymbolicSummary
from repro.summaries.paa import paa, segment_lengths


def norm_ppf(p):
    """Inverse standard-normal CDF (Acklam 2003 rational approximation)."""
    p = np.asarray(p, dtype=np.float64)
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    plow, phigh = 0.02425, 1 - 0.02425
    out = np.empty_like(p)
    lo = p < plow
    hi = p > phigh
    mid = ~(lo | hi)
    if lo.any():
        q = np.sqrt(-2 * np.log(p[lo]))
        out[lo] = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                   / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    if hi.any():
        q = np.sqrt(-2 * np.log(1 - p[hi]))
        out[hi] = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                    / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        out[mid] = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
                    / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1))
    return out


def sax_breakpoints(alphabet: int) -> np.ndarray:
    """Interior N(0,1) equal-depth breakpoints — (alphabet-1,) increasing."""
    return norm_ppf(np.arange(1, alphabet) / alphabet)


class SAXSummary(SymbolicSummary):
    """iSAX summary for series of length ``n`` with ``l`` segments.

    ``approx`` returns PAA means; ``weights`` are segment lengths, so the
    squared lower bound is ``sum_j len_j * mindist_j^2 <= ed2`` (the
    classic iSAX *mindist* with uneven-segment support).
    """

    def __init__(self, n: int, l: int = 16, alphabet: int = 256):
        self.n = int(n)
        interior = sax_breakpoints(alphabet)
        row = np.concatenate([[-np.inf], interior, [np.inf]])
        edges = np.tile(row, (l, 1))
        super().__init__(l=l, alphabet=alphabet, edges=edges, weights=segment_lengths(n, l))

    def approx(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)  # paa sums in float64 without copying x
        if x.shape[1] != self.n:
            raise ValueError(f"series length {x.shape[1]} != {self.n}")
        return paa(x, self.l)
