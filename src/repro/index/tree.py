"""Flat z-order leaf index over a symbolic summary (Section IV-A/B/C).

Layout (one build path for SOFA, MESSI and every Spark partition):

- rows are sorted by the **z-order key** of their word: the symbol bits
  interleaved MSB-first, bit-plane by bit-plane, so the first ``l`` bits
  are MESSI's 1-bit root key and each further plane refines every
  position by one bit, the order a split-by-cardinality tree would
  reach. Ties fall to the row. The keys are native uint64 words; one
  ``argsort`` of the first word orders the rows, and only the few rows
  that tie a neighbour there are sorted again by the whole key
  (``_zorder``);
- the sorted order is cut into runs of ``leaf_size`` rows (``LEAF_ROWS``
  = 64 unless a caller asks for another size), so every leaf but the
  last is full (bottom-up full-leaf build, as in Coconut) and leaf ``i``
  is rows ``[i * leaf_size, min((i + 1) * leaf_size, N))``: the leaf
  offsets follow from ``N`` and ``leaf_size`` and are not stored;
- the row order is kept as ``perm`` in the narrowest unsigned type that
  holds ``N - 1`` (uint8 up to 256 rows, uint16 up to 65,536, then
  uint32), not int64;
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
at the first column cut where its partial distance passes the BSF. The
BSF and the top-k are one ``TopK``: the queue, filter and ED bound read
its ``bound2()``, and survivors are merged by ``push``.

The queue is drained in *batches* (batch ``DeleteMin``): the seed batch
is the fewest leading leaves whose rows reach ``k``, so the BSF is finite
after it and every later ED call has a bound; the next batches hold at
least ``_FIRST_CHUNK_ROWS`` rows, doubling from batch to batch, and the
batch that would reach ``_LAST_CHUNK_ROWS`` takes every leaf whose box LBD
the BSF still admits, after which the drain ends. The BSF thus tightens
after 8, 16 and 32 leaves of 64 rows, early when it moves most, and a
query that visits every leaf runs five batches. Exactness holds for any
batch sizes, since a leaf is only skipped when its LBD exceeds the
current BSF; the batches replace per-leaf Python overhead with wide NumPy
kernels, the role SIMD plays in the paper.

The paper's multi-threaded index workers map to Spark partitions in
this repo (each partition owns an independent TreeIndex; see
``repro.distrib``). In process, a build spreads its word pass over
threads: ``SymbolicSummary.words`` computes and quantizes every batch in
row blocks on a per-call thread pool. A query does the same with a large
batch, the paper's query workers sharing one BSF: a batch of more than
``BLOCK_ROWS`` rows is split into one run of whole leaves per core, in
queue order, each LBD-filtered and verified against the one bound fixed
when the batch starts, on a thread pool that the first such batch starts
and the ``knn`` call shuts down when it returns or raises. Much of the
NumPy kernels' work releases the GIL. The runs' survivors are joined in
queue order and merged into the top-k on the calling thread, so answers
and counters equal one whole-batch pass. Smaller batches run inline and
start no pool: a 3,000-row Spark partition never starts one. On
engine-hf, a MESSI query runs its seed and its 512- to 2,048-row batches
inline and the rest, about 44,000 rows, in one pooled pass; of 512 SOFA
queries, none with k = 1 and 4 with k = 10 send a batch to the pool.
``SearchStats`` exposes hardware-independent work counters used by the
experiment harnesses to explain *why* one method beats another,
independent of Python/C constant factors.
"""
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.distance import TopK, check_k, check_series, ed2_batch, stored_rows
from repro.summaries.common import BLOCK_ROWS, SymbolicSummary
from repro.summaries.simd import batch_interval_mindist2, batch_mindist2, mindist2_table

# Series in the first batch DeleteMin after the seed, doubled for every
# later batch; any value yields the same exact result.
_FIRST_CHUNK_ROWS = 512

# The batch that would reach this many series takes every leaf the BSF
# still admits instead, so a query that visits most leaves sends the
# query's pool one batch, not one per doubling; any value yields the same
# exact result. Not tied to BLOCK_ROWS, which only decides whether a batch
# goes to the pool.
_LAST_CHUNK_ROWS = 4096

# Series per leaf of every tree (SOFA, MESSI, each Spark partition). A
# smaller leaf has a tighter symbol box, so fewer rows of a visited leaf
# pay the per-series LBD, but the leaf-box pass grows with the leaf count:
# SOFA queries ran slower at 32 and 256 rows than at 64 on 48,000- and
# 240,000-row collections, and at 128 on every size from 3,000 to 240,000.
LEAF_ROWS = 64


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


#: the low bit of every byte of a uint64
_BYTE_LSB = np.uint64(0x0101010101010101)
#: times a uint64 of 0/1 bytes, puts byte ``i``'s bit at bit ``63 - i``:
#: the product's top byte packs the eight bits MSB-first, as ``packbits``
_BYTE_GATHER = np.uint64(0x8040201008040201)


def _zorder_keys(words: np.ndarray, word_bits: int) -> np.ndarray:
    """Z-order keys of ``words`` (N, l) as native uint64 rows (K, N), most
    significant word first.

    Bit-plane ``p`` (bit ``word_bits - 1 - p`` of every symbol) is packed
    MSB-first into ``ceil(l / 8)`` bytes, eight symbols at a time with one
    multiply (``_BYTE_GATHER``), and the planes follow each other. Padding
    a plane to whole bytes inserts the same zero bits into every key, so
    the keys order the rows as the unpadded key of ``_zorder`` does.
    """
    n_rows, l = words.shape
    groups = -(-l // 8)
    padded = np.zeros((n_rows, 8 * groups), dtype=np.uint8)
    padded[:, :l] = words
    # symbol 8c + i is byte i (least significant first) of group c
    cols = np.ascontiguousarray(padded.view("<u8").astype(np.uint64, copy=False).T)
    keys = np.zeros((-(-word_bits * groups // 8), n_rows), dtype=np.uint64)
    for p in range(word_bits):
        for c in range(groups):
            byte = (cols[c] >> np.uint64(word_bits - 1 - p)) & _BYTE_LSB
            byte *= _BYTE_GATHER
            byte >>= np.uint64(56)
            i = p * groups + c  # byte i of the key, big-endian
            byte <<= np.uint64(56 - 8 * (i % 8))
            keys[i // 8] |= byte
    return keys


def _zorder(words: np.ndarray, word_bits: int) -> np.ndarray:
    """Row order of ``words`` (N, l) by their z-order key, ties by row.

    The key's bit ``p * l + j`` is bit ``word_bits - 1 - p`` of symbol
    ``j`` (``_zorder_keys``). The rows are sorted by the key's first 64-bit
    word alone; only the rows whose first word ties a neighbour's are
    sorted again, by the whole key and then the row, and written back into
    their places. That is ``np.lexsort``'s permutation over the whole key
    and the row, whatever order the first sort leaves ties in. On engine-hf
    98–99 % of the rows have a unique first word, so the second sort is
    small; if every row ties, it costs one ``argsort`` more than a plain
    ``lexsort``.
    """
    keys = _zorder_keys(words, word_bits)
    order = np.argsort(keys[0])
    first = keys[0, order]
    tie = first[1:] == first[:-1]
    tied = np.flatnonzero(np.concatenate(([False], tie)) | np.concatenate((tie, [False])))
    if len(tied):
        rows = order[tied]
        # the tied runs keep their places: the first word orders them
        order[tied] = rows[np.lexsort((rows, *keys[::-1, rows]))]
    return order


class TreeIndex:
    """In-memory exact-search index over z-normalized series ``X``.

    The rows are kept as ``stored_rows(X)``: float32 (a float32 ``X`` is
    held as is) unless that would round a value, then float64.
    ``ids`` are the external identifiers returned from queries (defaults
    to 0..N-1); they are stored in leaf order as ``ids_perm``: int64 for
    caller-given ids, else ``perm`` itself, whose dtype is the narrowest
    unsigned type that holds ``N - 1``. ``leaf_size`` is the number of
    series per leaf; leaf ``i`` holds the rows
    ``[i * leaf_size, min((i + 1) * leaf_size, N))`` of the leaf order.
    """

    def __init__(self, summary: SymbolicSummary, X: np.ndarray,
                 ids: np.ndarray | None = None, leaf_size: int = LEAF_ROWS):
        self.summary = summary
        self.X = stored_rows(X)
        n_rows = self.X.shape[0]
        if ids is not None:
            ids = np.asarray(ids, dtype=np.int64)
            if len(ids) != n_rows:
                raise ValueError("ids length != number of series")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = leaf_size
        words = summary.words(self.X)  # (N, l) uint8; rejects NaN/inf series
        self.perm = _zorder(words, summary.bits).astype(np.min_scalar_type(max(n_rows - 1, 0)))
        self.ids_perm = self.perm if ids is None else ids[self.perm]
        self.words_perm = words[self.perm]
        starts = np.arange(0, n_rows, leaf_size)
        self.leaf_lo = np.minimum.reduceat(self.words_perm, starts)
        self.leaf_hi = np.maximum.reduceat(self.words_perm, starts)

    @property
    def leaf_start(self) -> np.ndarray:
        """Row offsets of the leaves in the leaf order, then ``N``."""
        n_rows = self.X.shape[0]
        return np.append(np.arange(0, n_rows, self.leaf_size), n_rows)

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
        n_rows, n_leaves, size = self.X.shape[0], len(self.leaf_lo), self.leaf_size
        if n_rows == 0:
            return []
        k = min(k, n_rows)
        st = stats if stats is not None else SearchStats()
        st.n_series, st.n_leaves = n_rows, n_leaves
        qvals = self.summary.approx(q[None, :])[0]
        edges, weights = self.summary.edges, self.summary.weights
        table = mindist2_table(qvals, edges)

        top = TopK(k)
        lane = np.arange(min(size, n_rows))  # one leaf when leaf_size > N

        def rows(lids: np.ndarray) -> np.ndarray:
            """Row positions of the leaves ``lids``, leaf after leaf."""
            sel = (lids[:, None] * size + lane).ravel()
            return sel if n_rows % size == 0 else sel[sel < n_rows]

        def verify(lids: np.ndarray, bound2: float) -> tuple[np.ndarray, np.ndarray]:
            """LBD-filter the rows of the leaves ``lids`` and verify the
            survivors against ``bound2``: their permuted row positions and
            squared EDs."""
            sel = rows(lids)
            lbd2 = batch_mindist2(qvals, self.words_perm[sel], edges, weights, table=table)
            surv = sel[lbd2 <= bound2]
            if len(surv) == 0:
                return surv, np.empty(0)
            return surv, ed2_batch(q, self.X, rows=self.perm[surv], bound2=bound2)

        pool = None  # started by the first batch of more than BLOCK_ROWS rows

        def process(lids: np.ndarray, n_sel: int) -> None:
            """Verify the ``n_sel`` rows of the leaves ``lids`` against the
            current BSF and merge them into the top-k."""
            nonlocal pool
            st.leaves_visited += len(lids)
            st.series_lbd_checked += n_sel
            bound2 = top.bound2()
            if n_sel <= BLOCK_ROWS:
                surv, d2s = verify(lids, bound2)
            else:
                # one run of whole leaves per core, each filtered and
                # verified against the same bound, so the result equals
                # one whole-batch pass
                if pool is None:
                    pool = ThreadPoolExecutor(os.cpu_count() or 1)
                runs = np.array_split(lids, min(os.cpu_count() or 1, len(lids)))
                parts = list(pool.map(lambda run: verify(run, bound2), runs))
                surv = np.concatenate([s for s, _ in parts])
                d2s = np.concatenate([d for _, d in parts])
            if len(surv) == 0:
                return
            st.series_ed_computed += len(surv)
            st.series_ed_abandoned += int(np.count_nonzero(d2s == np.inf))
            top.push(d2s, self.ids_perm[surv])

        # leaf-box LBD of every leaf in one vectorized pass: the priority
        # queue of MESSI, materialized at once
        leaf_d2 = batch_interval_mindist2(qvals, self.leaf_lo, self.leaf_hi, edges,
                                          weights, table=table)
        order = np.argsort(leaf_d2, kind="stable")
        queue_d2 = leaf_d2[order]
        sizes = np.full(n_leaves, size)
        sizes[-1] = n_rows - (n_leaves - 1) * size
        queue_end = np.cumsum(sizes[order])  # rows through each leaf

        # the fewest most promising leaves that hold k rows seed the BSF
        # with real distances, so every later ED call has a finite bound
        i = int(np.searchsorted(queue_end, k)) + 1
        try:
            process(order[:i], int(queue_end[i - 1]))

            # drain the queue in batches of at least _FIRST_CHUNK_ROWS rows,
            # doubling each time; the batch that would reach
            # _LAST_CHUNK_ROWS takes every leaf the BSF still admits, after
            # which the head can't reach the BSF and the loop ends
            chunk = _FIRST_CHUNK_ROWS
            while i < n_leaves and queue_d2[i] <= top.bound2():
                j = int(np.searchsorted(queue_d2, top.bound2(), side="right"))
                if chunk < _LAST_CHUNK_ROWS:
                    j = min(j, int(np.searchsorted(queue_end, queue_end[i - 1] + chunk)) + 1)
                process(order[i:j], int(queue_end[j - 1] - queue_end[i - 1]))
                i, chunk = j, 2 * chunk
        finally:
            if pool is not None:
                pool.shutdown()

        return top.pairs()
