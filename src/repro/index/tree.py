"""Flat z-order leaf index over a symbolic summary (Section IV-A/B/C).

Layout (one build path for SOFA, MESSI and every Spark partition):

- rows are sorted by the **z-order key** of their word: the symbol bits
  interleaved MSB-first, bit-plane by bit-plane, so the first ``l`` bits
  are MESSI's 1-bit root key and each further plane refines every
  position by one bit, the order a split-by-cardinality tree would
  reach;
- the sorted order is cut into runs of ``leaf_size`` rows, so every leaf
  but the last is full (bottom-up full-leaf build, as in Coconut);
- each leaf stores the per-position min/max **symbol box** of its rows
  as uint8 symbols ``leaf_lo``/``leaf_hi`` (both inclusive). The box
  contains every member's symbol, so its LBD is a lower bound for every
  series in the leaf, the property GEMINI's leaf pruning needs.

Exact search (Section IV-C, GEMINI): the leaf-box LBDs of all leaves are
computed in one vectorized pass and sorted; the leaf with the smallest
LBD seeds the best-so-far (BSF), then leaves are drained in that order
until the head's LBD exceeds the BSF. Each drained batch is LBD-filtered
per series with the table-gather kernel (the query's table is built once
per search), and survivors are verified with real Euclidean distances by
the early-abandoning ``ed2_batch(q, X, rows=, bound2=)``: a row is dropped
at the first column cut where its partial distance passes the BSF. Rows
the BSF can still admit are merged into the current top-k by ``select_topk``.

The queue is drained in *chunks* of ``_CHUNK_ROWS`` series (batch
``DeleteMin``): the BSF updates between chunks rather than between
single leaves. Exactness holds for any chunk size, since a leaf is only
skipped when its LBD exceeds the current BSF; the chunks replace per-leaf
Python overhead with wide NumPy kernels, the role SIMD plays in the
paper.

The paper's multi-threaded index workers map to Spark partitions in
this repo (each partition owns an independent TreeIndex; see
``repro.distrib``). In process, a build spreads its word pass over
threads: ``SymbolicSummary.words`` computes a large batch's approx values
in row blocks on a per-call thread pool. ``SearchStats`` exposes hardware-independent work
counters used by the experiment harnesses to explain *why* one method
beats another, independent of Python/C constant factors.
"""
from dataclasses import dataclass

import numpy as np

from repro.core.distance import check_k, check_series, ed2_batch, select_topk, stored_rows
from repro.summaries.common import SymbolicSummary
from repro.summaries.simd import (PRUNE_SLACK, batch_interval_mindist2, batch_mindist2,
                                  mindist2_table)

# Series per batch DeleteMin; any value yields the same exact result.
_CHUNK_ROWS = 2048


@dataclass
class SearchStats:
    """Work counters for one query (reset per ``knn`` call)."""

    n_series: int = 0
    n_leaves: int = 0
    leaves_visited: int = 0
    series_lbd_checked: int = 0
    series_ed_computed: int = 0
    series_ed_abandoned: int = 0  # of those, stopped at a column cut

    @property
    def pruning_ratio(self) -> float:
        """Fraction of series whose real ED was never computed."""
        return 1.0 - self.series_ed_computed / max(1, self.n_series)


def _zorder(words: np.ndarray, word_bits: int) -> np.ndarray:
    """Row order of ``words`` (N, l) by their z-order key, ties by row.

    The key's bit ``p * l + j`` is bit ``word_bits - 1 - p`` of symbol
    ``j``; keys are packed big-endian into uint64 columns for lexsort. The
    summaries here return C-ordered words; the copy to C order serves a
    ``words`` override that returns another memory order, which the uint64
    view would reject.
    """
    words = np.ascontiguousarray(words)
    shifts = np.arange(word_bits - 1, -1, -1, dtype=np.uint8)
    planes = (words[:, None, :] >> shifts[:, None]) & 1  # (N, bits, l)
    packed = np.packbits(planes.reshape(len(words), word_bits * words.shape[1]), axis=1)
    pad = -packed.shape[1] % 8
    packed = np.pad(packed, ((0, 0), (0, pad)))
    keys = packed.view(">u8")  # (N, ceil(bits*l/64))
    return np.lexsort(keys.T[::-1])


class TreeIndex:
    """In-memory exact-search index over z-normalized series ``X``.

    The rows are kept as ``stored_rows(X)``: float32 (a float32 ``X`` is
    held as is) unless that would round a value, then float64.
    ``ids`` are the external identifiers returned from queries (defaults
    to 0..N-1); ``leaf_size`` is the number of series per leaf.
    """

    def __init__(self, summary: SymbolicSummary, X: np.ndarray,
                 ids: np.ndarray | None = None, leaf_size: int = 128):
        self.summary = summary
        self.X = stored_rows(X)
        n_rows = self.X.shape[0]
        self.ids = np.arange(n_rows, dtype=np.int64) if ids is None \
            else np.asarray(ids, dtype=np.int64)
        if len(self.ids) != n_rows:
            raise ValueError("ids length != number of series")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = leaf_size
        words = summary.words(self.X)  # (N, l) uint8; rejects NaN/inf series
        self.perm = _zorder(words, summary.bits)
        self.words_perm = words[self.perm]
        self.leaf_start = np.append(np.arange(0, n_rows, leaf_size), n_rows)
        starts = self.leaf_start[:-1]
        self.leaf_lo = np.minimum.reduceat(self.words_perm, starts)
        self.leaf_hi = np.maximum.reduceat(self.words_perm, starts)

    def structure_stats(self) -> dict:
        """Leaf-shape statistics (paper Figure 8): leaf count and fill."""
        sizes = np.diff(self.leaf_start)
        return {
            "n_leaves": len(sizes),
            "mean_leaf_fill": float(sizes.mean()) / self.leaf_size if len(sizes) else 0.0,
        }

    def knn(self, q: np.ndarray, k: int = 1,
            stats: SearchStats | None = None) -> list[tuple[float, int]]:
        """Exact k nearest neighbors of z-normalized query ``q``.

        Returns ``[(distance, id), ...]`` ascending, ties broken by id.
        Raises ``ValueError`` for ``k < 1`` or a bad (non-finite, wrong-length) query.
        """
        check_k(k)
        q = np.ascontiguousarray(q, dtype=np.float64).ravel()
        check_series(q[None, :], "query", self.X.shape[1])
        n_rows, n_leaves = self.X.shape[0], len(self.leaf_start) - 1
        if n_rows == 0:
            return []
        k = min(k, n_rows)
        st = stats if stats is not None else SearchStats()
        st.n_series, st.n_leaves = n_rows, n_leaves
        qvals = self.summary.approx(q[None, :])[0]
        edges, weights = self.summary.edges, self.summary.weights
        table = mindist2_table(qvals, edges)

        # the current top-k, ascending by (d2, id)
        best_d2, best_ids = np.empty(0), np.empty(0, dtype=np.int64)

        def keep2() -> float:
            """Largest squared LBD or distance that can still hold a top-k answer."""
            return best_d2[-1] * PRUNE_SLACK if len(best_d2) == k else np.inf

        def process(sel: np.ndarray) -> None:
            """LBD-filter + exact-verify the permuted row positions ``sel``."""
            nonlocal best_d2, best_ids
            st.series_lbd_checked += len(sel)
            lbd2 = batch_mindist2(qvals, self.words_perm[sel], edges, weights, table=table)
            surv = sel[lbd2 <= keep2()]
            if len(surv) == 0:
                return
            st.series_ed_computed += len(surv)
            d2s = ed2_batch(q, self.X, rows=self.perm[surv], bound2=keep2())
            st.series_ed_abandoned += int(np.count_nonzero(d2s == np.inf))
            cand = d2s <= keep2()
            d2s = np.append(best_d2, d2s[cand])
            ids = np.append(best_ids, self.ids[self.perm[surv[cand]]])
            top = select_topk(d2s, ids, k)
            best_d2, best_ids = d2s[top], ids[top]

        def rows(lids: np.ndarray) -> np.ndarray:
            """Row positions of the leaves ``lids``, leaf after leaf."""
            starts = self.leaf_start[lids]
            sizes = self.leaf_start[lids + 1] - starts
            return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())

        # leaf-box LBD of every leaf in one vectorized pass: the priority
        # queue of MESSI, materialized at once
        leaf_d2 = batch_interval_mindist2(qvals, self.leaf_lo, self.leaf_hi, edges,
                                          weights, table=table)
        order = np.argsort(leaf_d2, kind="stable")
        queue_d2 = leaf_d2[order]
        queue_end = np.cumsum(np.diff(self.leaf_start)[order])  # rows through each leaf

        # the most promising leaf seeds the BSF with real distances
        st.leaves_visited += 1
        process(rows(order[:1]))

        # drain the queue in chunks of at least _CHUNK_ROWS rows; stop when
        # the head can't reach the BSF
        i = 1
        while i < n_leaves and queue_d2[i] <= keep2():
            j = int(min(np.searchsorted(queue_end, queue_end[i - 1] + _CHUNK_ROWS) + 1,
                        np.searchsorted(queue_d2, keep2(), side="right")))
            st.leaves_visited += j - i
            process(rows(order[i:j]))
            i = j

        return [(float(d), int(i)) for d, i in zip(np.sqrt(best_d2), best_ids)]
