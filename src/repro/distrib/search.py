"""Distributed exact k-NN: per-partition engines + Spark SQL top-k merge.

``exact_knn`` is the reproduction's main query path. Each partition of
the ``(id, series)`` DataFrame builds (or fetches from the executor
cache) its engine — a SOFA or MESSI tree, a UCR early-abandon scan, or
a FAISS-style flat GEMM scan — answers the whole query batch locally
and emits its local top-k per query; a window function then keeps the
global k. Exactness: the global k-NN of a partitioned collection is
contained in the union of per-partition exact k-NNs.

This mirrors the paper's setup: MESSI/SOFA answer queries one at a time
with many workers on one index; here the batch of queries crosses
independent partition indexes, and the merge is the synchronization
point (like UCR-Suite-P's end-of-scan combine).

**Timing note.** Every action re-ships each partition's series through
Arrow (Spark's execution model); ``cache_token`` only avoids *rebuilding*
the engine on a reused worker. At tier sizes this fixed transport cost
is the dominant per-action term for every method equally; the
experiment harness therefore offers a marginal-cost protocol
(``repro.experiments.runner.timed_search(mode='marginal')``) that
cancels it out. See EXPERIMENTS.md § Table II.
"""
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import TaskContext
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.baselines.flat_l2 import flat_knn
from repro.baselines.ucr_scan import ucr_knn
from repro.core.distance import check_k, check_series
from repro.distrib import cache
from repro.distrib.dataset import to_matrix
from repro.index.messi import build_messi
from repro.index.sofa import build_sofa
from repro.summaries.sfa import SFASummary

METHODS = ("sofa", "messi", "ucr", "flat")
RESULT_SCHEMA = "query_id long, series_id long, dist double"

def _build_engine(batches: Iterator[pd.DataFrame], method: str,
                  summary, leaf_size: int, l: int, alphabet: int):
    chunks = [b for b in batches if len(b)]
    if not chunks:
        return None
    ids, X = to_matrix(pd.concat(chunks, ignore_index=True))
    if method == "sofa":
        return ("tree", build_sofa(X, ids=ids, summary=summary, l=l,
                                   alphabet=alphabet, leaf_size=leaf_size))
    if method == "messi":
        return ("tree", build_messi(X, ids=ids, l=l, alphabet=alphabet,
                                    leaf_size=leaf_size))
    return ("scan", (ids, X))


def _answer(engine, method: str, queries: np.ndarray, k: int) -> pd.DataFrame:
    kind, obj = engine
    if kind == "tree":
        res = [obj.knn(q.astype(np.float32), k=k) for q in queries]
    else:
        ids, X = obj
        res = (ucr_knn if method == "ucr" else flat_knn)(X, queries, k=k, ids=ids)
    return pd.DataFrame([(qi, sid, dist) for qi, r in enumerate(res) for dist, sid in r],
                        columns=["query_id", "series_id", "dist"])


def _full_pass(method, queries, k, summary, leaf_size, l, alphabet, token):
    """mapInPandas closure: build (or fetch) engine from shipped data and
    answer the query batch."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        ctx = TaskContext.get()
        pid = ctx.partitionId() if ctx is not None else -1

        def build():
            return _build_engine(batches, method, summary, leaf_size, l,
                                 alphabet)

        engine = cache.get_or_build((token, method, pid), build) if token \
            else build()
        # A hit leaves the shipped rows unread, and a Python worker whose
        # input is not drained exits instead of returning to the pool, so
        # its cached engines and imports would die with it.
        for _ in batches:
            pass
        if engine is None:
            return
        yield _answer(engine, method, queries, k)

    return run


def _local_results(df: DataFrame, queries, k, method, summary, leaf_size, l,
                   alphabet, token) -> DataFrame:
    """Per-partition top-k rows (engine built or fetched per partition)."""
    full = _full_pass(method, queries, k, summary, leaf_size, l, alphabet,
                      token)
    return df.mapInPandas(full, schema=RESULT_SCHEMA)


def exact_knn(df: DataFrame, queries: np.ndarray, k: int = 1, *,
              method: str = "sofa", summary: SFASummary | None = None,
              leaf_size: int = 128, l: int = 16, alphabet: int = 256,
              cache_token: str | None = None) -> DataFrame:
    """Exact k-NN of each query against a ``(id, series)`` DataFrame.

    Returns a Spark DataFrame ``(query_id, series_id, dist, rank)`` with
    ``rank`` 1..k per query (ties broken by series_id), computed by the
    Catalyst plan: per-partition results -> window row_number -> filter.

    For ``method='sofa'`` pass a pre-fit ``summary`` (from
    ``repro.distrib.mcb.fit_sfa_spark``) so every partition quantizes
    identically, as in the paper's single learned transformation
    (Figure 5). ``cache_token`` enables the warm fast path (see module
    docstring); it must uniquely identify (dataset, partitioning,
    method parameters). Raises ``ValueError`` for ``k < 1``, a non-finite
    query, or one whose length differs from the summary's series length.
    """
    check_k(k)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "sofa" and summary is None:
        raise ValueError("method='sofa' requires a pre-fit SFA summary "
                         "(use repro.distrib.mcb.fit_sfa_spark)")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    check_series(queries, "query", summary.n if summary is not None else None)
    local = _local_results(df, queries, k, method, summary, leaf_size, l,
                           alphabet, cache_token)
    w = Window.partitionBy("query_id").orderBy(F.col("dist").asc(),
                                               F.col("series_id").asc())
    return (local.withColumn("rank", F.row_number().over(w))
            .filter(F.col("rank") <= k))
