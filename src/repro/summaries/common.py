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

``words`` runs every batch in row blocks of ``BLOCK_ROWS`` on a thread
pool that lives for the call: each block's worker checks its rows,
computes their approx values and quantizes them with a per-position
``np.searchsorted`` over the interior edges, writing uint8 symbols into
the result. NumPy's FFT, ``reduceat``, ``isfinite`` and ``searchsorted``
release the GIL, and each block's temporaries stay in cache. Every row's
approx values are computed alone and every value is binned alone, so the
words are bit-equal to one whole-batch pass.
"""
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.distance import check_series

#: rows per block of the threaded word pass in ``SymbolicSummary.words``;
#: ``TreeIndex.knn`` verifies a drain batch of more rows than this on its
#: per-query pool, split into one run of whole leaves per core
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
        inner = self.edges[:, 1:-1]
        # equal edges are allowed: they are degenerate bins, never reached
        if not np.isfinite(inner).all() or (np.diff(inner, axis=1) < 0).any():
            raise ValueError("interior edges must be finite and non-decreasing")

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
        out = np.empty((len(x), self.l), dtype=np.uint8)

        def fill(lo: int) -> None:
            block = x[lo:lo + BLOCK_ROWS]
            check_series(block, "series")
            out[lo:lo + BLOCK_ROWS] = self.words_from_approx(self.approx(block))

        # an empty batch is one empty block, so its length is still checked
        starts = range(0, max(len(x), 1), BLOCK_ROWS)
        with ThreadPoolExecutor(min(os.cpu_count() or 1, len(starts))) as pool:
            # reading every result re-raises the first failing block's error
            for _ in pool.map(fill, starts):
                pass
        return out

    def words_from_approx(self, a: np.ndarray) -> np.ndarray:
        """Quantize approx rows ``(N, l)`` into C-contiguous uint8 symbols.

        Symbol ``s`` at position ``j`` satisfies
        ``edges[j, s] <= a[:, j] < edges[j, s + 1]``.
        Raises ``ValueError`` if ``a`` has other than ``l`` columns or a
        value of ``a`` is NaN or infinite.
        """
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        if a.shape[1] != self.l:
            raise ValueError(f"approx has {a.shape[1]} columns, expected l={self.l}")
        check_series(a, "approx")
        out = np.empty(a.shape, dtype=np.uint8)
        for j, e in enumerate(self.edges):
            out[:, j] = np.searchsorted(e[1:-1], a[:, j], side="right")
        return out
