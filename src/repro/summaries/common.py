"""Shared contract for symbolic summaries (iSAX and SFA).

A symbolic summary maps a series to (a) an ``approx`` numeric vector of
length ``l`` (PAA means for iSAX, selected scaled DFT components for
SFA) and (b) a ``word`` of ``l`` uint8 symbols obtained by binning each
approx value with per-position ``edges``.

``edges`` has shape ``(l, alphabet+1)`` with ``edges[:, 0] = -inf`` and
``edges[:, -1] = +inf``; symbol ``a`` at position ``j`` denotes the
half-open interval ``[edges[j, a], edges[j, a+1])``. Because coarser
cardinalities merge *adjacent* bins, the boundary set at cardinality
``2^b`` is a subset of the one at ``2^(b+1)``: the hierarchical
property iSAX's variable-cardinality words assume.

``weights[j]`` is the position's multiplier in the squared lower bound
(segment length for PAA/iSAX; 2, or 1 at Nyquist, for DFT/SFA).

``words_from_approx`` finds the symbols with a grid-guided search: per
position, a uniform grid of ``4 * alphabet`` cells over the first..last
interior edge, whose grid points are binned by ``np.searchsorted`` once per
call. A value's cell gives a guess, which is then checked against the
real edges, so the symbols are exactly those of a per-value
``searchsorted``; only the grid points pay for a binary search.

``words`` computes the approx values of a batch larger than ``BLOCK_ROWS``
in row blocks on a thread pool that lives for the call: NumPy's FFT,
``reduceat`` and ``isfinite`` release the GIL, and each block's
temporaries stay in cache. Every row's approx values are computed alone,
and the quantizer bins each value alone, so the words are bit-equal to
one whole-batch pass.
"""
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.distance import check_series

#: rows per block of the threaded approx pass in ``SymbolicSummary.words``
BLOCK_ROWS = 4096


@dataclass
class SymbolicSummary:
    """Base: holds quantization state and implements word computation."""

    l: int
    alphabet: int
    edges: np.ndarray  # (l, alphabet+1), +-inf ends
    weights: np.ndarray  # (l,)
    bits: int = field(init=False)

    def __post_init__(self):
        if self.alphabet < 2 or self.alphabet & (self.alphabet - 1):
            raise ValueError(f"alphabet must be a power of two >= 2, got {self.alphabet}")
        self.bits = int(self.alphabet).bit_length() - 1
        self.edges = np.asarray(self.edges, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.edges.shape != (self.l, self.alphabet + 1):
            raise ValueError(f"edges shape {self.edges.shape} != {(self.l, self.alphabet + 1)}")
        if not (np.isneginf(self.edges[:, 0]).all() and np.isposinf(self.edges[:, -1]).all()):
            raise ValueError("edges must start at -inf and end at +inf")

    # -- to be provided by subclasses -------------------------------------
    def approx(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        """Numeric reduced representation ``(N, l)`` of batch ``(N, n)``."""
        raise NotImplementedError

    # -- shared ------------------------------------------------------------
    def words(self, x: np.ndarray) -> np.ndarray:
        """Symbolic words ``(N, l)`` uint8 for a batch of raw series.

        Raises ``ValueError`` if a value of ``x`` is NaN or infinite.
        """
        x = np.atleast_2d(x)
        if len(x) <= BLOCK_ROWS:
            check_series(x, "series")
            return self.words_from_approx(self.approx(x))
        # column-major, as the quantizer reads it
        a = np.empty((len(x), self.l), order="F")

        def fill(lo: int) -> None:
            block = x[lo:lo + BLOCK_ROWS]
            check_series(block, "series")
            a[lo:lo + BLOCK_ROWS] = self.approx(block)

        starts = range(0, len(x), BLOCK_ROWS)
        with ThreadPoolExecutor(min(os.cpu_count() or 1, len(starts))) as pool:
            # reading every result re-raises the first failing block's error
            for _ in pool.map(fill, starts):
                pass
        # one quantizer pass: its many small NumPy calls would contend for
        # the GIL inside the workers
        return self.words_from_approx(a)

    def words_from_approx(self, a: np.ndarray) -> np.ndarray:
        """Quantize approx rows ``(N, l)`` into C-contiguous uint8 symbols.

        Symbol ``s`` at position ``j`` satisfies
        ``edges[j, s] <= a[:, j] < edges[j, s + 1]``, the result of
        ``np.searchsorted(edges[j, 1:-1], a[:, j], side="right")``.
        Raises ``ValueError`` if ``a`` has other than ``l`` columns or a
        value of ``a`` is NaN or infinite.
        """
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        if a.shape[1] != self.l:
            raise ValueError(f"approx has {a.shape[1]} columns, expected l={self.l}")
        check_series(a, "approx")
        cells = 4 * self.alphabet
        steps = np.arange(cells + 1)
        out = np.empty(a.shape, dtype=np.uint8)
        for j, e in enumerate(self.edges):
            inner = e[1:-1]
            lo = inner[0]
            # the guess may overflow or divide by zero; the correction
            # below makes every symbol exact all the same
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scale = cells / (inner[-1] - lo)
                if not 0 < scale < np.inf:
                    # zero span (all interior edges equal): unit cells put
                    # every value >= lo above all edges; a non-finite span
                    # leaves the guess to the correction
                    scale = 1.0
                # guess[c + 1] is the symbol of grid point c; cell -1 lies
                # below every interior edge
                guess = np.zeros(cells + 2, dtype=np.intp)
                guess[1:] = np.searchsorted(inner, lo + steps / scale, side="right")
                v = np.ascontiguousarray(a[:, j])
                cell = v - lo
                cell *= scale
                cell += 1.0
            np.clip(cell, 0, cells + 1, out=cell)
            s = guess[cell.astype(np.intp)]
            # one step corrects a guess one edge off; a cell holding several
            # edges (duplicate equi-depth edges) can leave it farther off,
            # and those few values are searched
            high = np.flatnonzero(v < e[s])
            s[high] -= 1
            low = np.flatnonzero(v >= e[1:][s])
            s[low] += 1
            off = np.concatenate([high[v[high] < e[s[high]]],
                                  low[v[low] >= e[1:][s[low]]]])
            s[off] = np.searchsorted(inner, v[off], side="right")
            out[:, j] = s
        return out
