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
"""
from dataclasses import dataclass, field

import numpy as np


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
        """Symbolic words ``(N, l)`` uint8 for a batch of raw series."""
        return self.words_from_approx(self.approx(x))

    def words_from_approx(self, a: np.ndarray) -> np.ndarray:
        """Quantize approx rows into symbols via per-position searchsorted."""
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        out = np.empty(a.shape, dtype=np.uint8)
        for j in range(self.l):
            # interval [edges[a], edges[a+1]) -> side='right' on interior edges
            out[:, j] = np.searchsorted(self.edges[j, 1:-1], a[:, j], side="right")
        return out
