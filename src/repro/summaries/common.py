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
computes their approx values and quantizes them, writing uint8 symbols
into the result. The quantizer (``_Grid``) lays a uniform grid of
``4 * alphabet`` cells over each position's first..last interior edge.
Its guess table holds, per position, the symbol of every grid point and
one cell below the grid (``4 * alphabet + 2`` entries). It is built once
per ``words`` call and read by every block, and not kept on the summary,
which an index stores and every Spark closure carries. A block is binned
in one pass over all its (rows, l) values: a value's cell
``(a - lo_j) * scale_j`` indexes the flat table, and the guess is
corrected by one step up against the real edges. Every value is then
checked against both edges of its symbol; only values still off, where
a cell holds several edges (as equi-depth edges can) or a value was
rounded into a neighbour cell, are found by ``np.searchsorted``. The symbol is thus exactly the
one whose interval ``[edges[j, s], edges[j, s + 1])`` holds the value,
as a per-value ``searchsorted`` finds it. The pass is a fixed number of
whole-block NumPy calls: a per-position loop of small calls inside the
workers made a build slower, as they contend for the GIL. NumPy's FFT,
``reduceat``, ``isfinite``, ``take`` and the arithmetic release the GIL,
and each block's temporaries stay in cache. Every row's approx values
are computed alone and every value is binned alone, so the words are
bit-equal to one whole-batch pass.
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
        grid = _Grid(self.edges)  # one guess table, read by every block

        def fill(lo: int) -> None:
            block = x[lo:lo + BLOCK_ROWS]
            check_series(block, "series")
            grid.bin(self.approx(block), out[lo:lo + BLOCK_ROWS])

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
        a = np.atleast_2d(a)
        out = np.empty((len(a), a.shape[1]), dtype=np.uint8)
        _Grid(self.edges).bin(a, out)
        return out


class _Grid:
    """The quantizer's guess table for ``edges`` (l, A+1): per position, a
    uniform grid of ``4 * A`` cells over the first..last interior edge.

    ``bin`` finds every value's cell in one pass over the whole (N, l)
    block, reads a guess from ``guess`` and corrects it against the real
    edges, so its symbols equal a per-value ``searchsorted``; see the
    module docstring.
    """

    def __init__(self, edges: np.ndarray):
        l, a1 = edges.shape
        cells = 4 * (a1 - 1)
        inner = edges[:, 1:-1]
        self.lo = inner[:, 0]
        with np.errstate(divide="ignore", over="ignore"):
            scale = cells / (inner[:, -1] - self.lo)
        # a zero span (all interior edges equal) gets unit cells, which put
        # every value >= lo above all edges; an overflowing span leaves the
        # guess to the correction
        scale[~((scale > 0) & (scale < np.inf))] = 1.0
        self.scale, self.cells = scale, cells
        # guess[j, c + 1] is the symbol of grid point c of position j, as
        # an index into the flat edges; cell -1 lies below every interior edge
        guess = np.zeros((l, cells + 2), dtype=np.intp)
        points = np.arange(cells + 1)
        with np.errstate(over="ignore"):
            for j in range(l):
                guess[j, 1:] = np.searchsorted(inner[j], self.lo[j] + points / scale[j],
                                               side="right")
        self.edge_base = np.arange(l) * a1  # flat index of edges[j, 0]
        guess += self.edge_base[:, None]
        self.guess = guess.ravel()
        self.cell_base = np.arange(l) * (cells + 2)  # flat index of guess[j, 0]
        self.edges = edges

    def bin(self, a: np.ndarray, out: np.ndarray) -> None:
        """Write the symbols of approx rows ``a`` (N, l) into the C-contiguous
        uint8 ``out`` (N, l).

        Raises ``ValueError`` if ``a`` has other than ``l`` columns or a
        value of ``a`` is NaN or infinite.
        """
        a = np.ascontiguousarray(a, dtype=np.float64)
        l = len(self.lo)
        if a.shape[1] != l:
            raise ValueError(f"approx has {a.shape[1]} columns, expected l={l}")
        check_series(a, "approx")
        # the cell may overflow; the clip and the correction keep every
        # symbol exact all the same
        with np.errstate(over="ignore"):
            cell = a - self.lo
            cell *= self.scale
        cell += 1.0
        np.clip(cell, 0, self.cells + 1, out=cell)
        idx = cell.astype(np.intp)
        idx += self.cell_base
        idx = self.guess.take(idx)  # flat index of the guessed symbol's lower edge
        lower, upper = self.edges.ravel(), self.edges.ravel()[1:]
        # the guess is the symbol of the cell's lower grid point, so one
        # step up corrects a value above the one edge its cell holds
        idx += a >= upper.take(idx)
        # values still off are searched: a cell that holds several edges
        # (equi-depth edges can crowd), or a value rounded into a neighbour
        # cell
        off = np.flatnonzero((a < lower.take(idx)) | (a >= upper.take(idx)))
        if len(off):
            for j in np.unique(off % l):
                at = off[off % l == j]
                idx.flat[at] = self.edge_base[j] + np.searchsorted(
                    self.edges[j, 1:-1], a.flat[at], side="right")
        np.subtract(idx, self.edge_base, out=out, casting="unsafe")
