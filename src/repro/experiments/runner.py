"""Timing runner for the search experiments (Tables II-IV).

Paper protocol: the index is built once, then query latency is measured
per query. Here: the table driver caches the series DataFrame, a warm-up
call builds the per-partition engines into the executor cache, and the
measured call answers the query batch against warm engines; reported
per-query latency is batch wall time / #queries.

The paper's 9/18/36 cores map to 4/8/16 partitions (DESIGN.md).
"""
import time

import numpy as np
from pyspark.sql import DataFrame

from repro.distrib.search import exact_knn
from repro.summaries.sfa import SFASummary

CORES_TO_PARTITIONS = {9: 4, 18: 8, 36: 16}

#: paper method label -> per-partition engine key
METHOD_KEYS = {"UCR suite": "ucr", "FAISS": "flat", "MESSI": "messi",
               "SOFA": "sofa"}


def timed_search(df: DataFrame, queries: np.ndarray, method: str, *,
                 k: int = 1, summary: SFASummary | None = None,
                 cache_token: str | None = None) -> dict:
    """Time ``method`` (a paper label) answering ``queries`` over ``df``.

    One warm-up call builds the engines (kept by the executors under
    ``cache_token``), then one timed call answers the batch; ``summary``
    is the SOFA summary. The batch wall time includes the fixed Spark
    action cost, which at tier sizes is the dominant term for every
    method equally (EXPERIMENTS.md). The caller owns ``df`` and its
    caching.

    Returns ``{"ms_per_query": float, "result": pandas DataFrame}``.
    """
    def call():
        return exact_knn(df, queries, k=k, method=METHOD_KEYS[method],
                         summary=summary, cache_token=cache_token).toPandas()

    call()
    t0 = time.perf_counter()
    result = call()
    dt = time.perf_counter() - t0
    return {"ms_per_query": dt / len(queries) * 1000.0, "result": result}
