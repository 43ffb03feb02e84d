"""Distributed exact k-NN: per-partition engines + a driver-side top-k merge.

``exact_knn`` is the reproduction's main query path. Each partition of
the ``(id, series)`` DataFrame builds (or fetches from the executor
cache) its engine — a SOFA or MESSI tree, a UCR early-abandon scan, or
a FAISS-style flat GEMM scan — answers the whole query batch locally
and emits its local top-k per query. The driver collects those rows (at
most partitions × queries × k) in one job and keeps the global k per
query. Exactness: the global k-NN of a partitioned collection is
contained in the union of per-partition exact k-NNs.

This mirrors the paper's setup: MESSI/SOFA answer queries one at a time
with many workers on one index; here the batch of queries crosses
independent partition indexes, and the merge is the synchronization
point (like UCR-Suite-P's end-of-scan combine). A combine over so few
rows needs no shuffle.

**Timing note.** Every action re-ships each partition's series as
Arrow ``list<double>`` buffers (Spark's execution model); ``cache_token``
only avoids *rebuilding* the engine on a reused worker. At tier sizes the
shipping itself is cheap; the dominant per-action term is the fixed cost
of a stage that runs Python, equal for every method. A no-op Python stage
over the 12,000 × 256 LenDB analog under ``local[4]`` on a 4-core host
took 0.16-0.19 s on a quiet host and 0.45-0.75 s under load. The
engines' own per-query cost is therefore timed in-process, without
Spark (``repro.experiments.local_bench``), including a scale curve
over N. See EXPERIMENTS.md § Table II.
"""
from typing import Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark import TaskContext
from pyspark.sql import DataFrame
from pyspark.sql.types import (DoubleType, IntegerType, LongType, StructField,
                               StructType)

from repro.baselines.flat_l2 import flat_knn
from repro.baselines.ucr_scan import ucr_knn
from repro.core.distance import check_k, check_series, stored_rows
from repro.distrib import cache
from repro.distrib.dataset import to_matrix
from repro.index.messi import build_messi
from repro.index.sofa import build_sofa
from repro.index.tree import LEAF_ROWS
from repro.summaries.sfa import SFASummary

METHODS = ("sofa", "messi", "ucr", "flat")
# Types rather than DDL strings, which Spark would parse in the JVM on
# every call (about 5-10 ms each).
RESULT_SCHEMA = StructType([StructField("query_id", LongType()),
                            StructField("series_id", LongType()),
                            StructField("dist", DoubleType())])
MERGED_SCHEMA = StructType([*RESULT_SCHEMA.fields,
                            StructField("rank", IntegerType(), nullable=False)])


def _build_engine(batches: Iterator[pa.RecordBatch], method: str, summary,
                  leaf_size: int):
    """The partition's engine as ``answer(queries, k)``, which returns each
    query's ``[(dist, id), ...]``; None for an empty partition."""
    chunks = [b for b in batches if b.num_rows]
    if not chunks:
        return None
    ids, X = to_matrix(pa.Table.from_batches(chunks))
    X = stored_rows(X)
    if method in ("ucr", "flat"):
        scan = ucr_knn if method == "ucr" else flat_knn
        return lambda queries, k: scan(X, queries, k=k, ids=ids)
    tree = build_sofa(X, ids=ids, summary=summary, leaf_size=leaf_size) \
        if method == "sofa" else build_messi(X, ids=ids, leaf_size=leaf_size)
    return lambda queries, k: [tree.knn(q, k=k) for q in queries]


def _answer(engine, queries: np.ndarray, k: int) -> pa.RecordBatch:
    res = engine(queries, k)
    rows = sum(len(r) for r in res)
    return pa.RecordBatch.from_arrays(
        [np.repeat(np.arange(len(res), dtype=np.int64), [len(r) for r in res]),
         np.fromiter((sid for r in res for _, sid in r), np.int64, rows),
         np.fromiter((dist for r in res for dist, _ in r), np.float64, rows)],
        names=RESULT_SCHEMA.names)


def _full_pass(method, queries, k, summary, leaf_size, token):
    """mapInArrow closure: build (or fetch) engine from shipped data and
    answer the query batch."""

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        ctx = TaskContext.get()
        pid = ctx.partitionId() if ctx is not None else -1

        def build():
            return _build_engine(batches, method, summary, leaf_size)

        engine = cache.get_or_build((token, method, pid), build) if token \
            else build()
        # A hit leaves the shipped rows unread, and a Python worker whose
        # input is not drained exits instead of returning to the pool, so
        # its cached engines and imports would die with it.
        for _ in batches:
            pass
        if engine is None:
            return
        yield _answer(engine, queries, k)

    return run


def _merge(local: pd.DataFrame, k: int) -> pd.DataFrame:
    """Global top-k from per-partition rows: per query, the ``k`` smallest
    ``(dist, series_id)`` rows, ranked 1..k, in ``MERGED_SCHEMA`` dtypes."""
    qid = local["query_id"].to_numpy(np.int64)
    sid = local["series_id"].to_numpy(np.int64)
    dist = local["dist"].to_numpy(np.float64)
    order = np.lexsort((sid, dist, qid))
    # a row's rank is one more than its offset from its query's first row
    rank = np.arange(1, len(order) + 1) - np.searchsorted(qid[order], qid[order])
    top = rank <= k
    keep = order[top]
    return pd.DataFrame({"query_id": qid[keep], "series_id": sid[keep],
                         "dist": dist[keep], "rank": rank[top].astype(np.int32)})


def exact_knn(df: DataFrame, queries: np.ndarray, k: int = 1, *,
              method: str = "sofa", summary: SFASummary | None = None,
              leaf_size: int = LEAF_ROWS, cache_token: str | None = None) -> DataFrame:
    """Exact k-NN of each query against a ``(id, series)`` DataFrame.

    Returns a Spark DataFrame ``(query_id, series_id, dist, rank)`` with
    ``rank`` 1..k per query (ties broken by series_id). The call is eager:
    it runs its Spark job when called, collects the per-partition top-k
    rows and merges them on the driver, and the returned frame holds the
    merged rows.

    For ``method='sofa'`` pass a pre-fit ``summary`` (from
    ``repro.distrib.mcb.fit_sfa_spark``) so every partition quantizes
    identically, as in the paper's single learned transformation
    (Figure 5); its word length and alphabet are the engine's. MESSI
    partitions use ``build_messi``'s paper defaults (word length 16,
    alphabet 256). ``cache_token`` enables the warm fast path (see module
    docstring); it must uniquely identify (dataset, partitioning,
    method parameters). Raises ``ValueError`` for ``k < 1``, a non-finite
    query, or one whose length differs from the summary's series length.
    The job fails, with the workers' ``ValueError``, on a partition whose
    series ``repro.distrib.dataset.read_rows`` rejects (null, ragged or
    non-finite) or whose length differs from the queries'.
    """
    check_k(k)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "sofa" and summary is None:
        raise ValueError("method='sofa' requires a pre-fit SFA summary "
                         "(use repro.distrib.mcb.fit_sfa_spark)")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    check_series(queries, "query", summary.n if summary is not None else None)
    full = _full_pass(method, queries, k, summary, leaf_size, cache_token)
    local = df.mapInArrow(full, schema=RESULT_SCHEMA).toPandas()
    return df.sparkSession.createDataFrame(_merge(local, k), MERGED_SCHEMA)
