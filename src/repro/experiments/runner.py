"""Timing runner for the search experiments (Tables II-IV).

Paper protocol: the index is built once, then query latency is measured
per query. Here: the series DataFrame is cached, a warm-up call builds
the per-partition engines into the executor cache, and the measured
call answers the query batch against warm engines; reported per-query
latency is batch wall time / #queries.

The paper's 9/18/36 cores map to 4/8/16 partitions (DESIGN.md).
"""
import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.datasets import make_dataset, make_queries
from repro.distrib.dataset import series_df
from repro.distrib.mcb import fit_sfa_spark
from repro.distrib.search import exact_knn

CORES_TO_PARTITIONS = {9: 4, 18: 8, 36: 16}

#: paper method label -> per-partition engine key
METHOD_KEYS = {"UCR suite": "ucr", "FAISS": "flat", "MESSI": "messi",
               "SOFA": "sofa"}


@dataclass
class SearchConfig:
    dataset: str
    method: str  # paper label, key of METHOD_KEYS
    partitions: int = 16
    k: int = 1
    n_queries: int = 20
    scale: float = 1.0
    sampling: float = 0.01
    seed: int = 7


def timed_search(spark: SparkSession, cfg: SearchConfig,
                 df_cache: dict | None = None, *,
                 mode: str = "batch") -> dict:
    """Run one configuration and return per-query latency + result frame.

    The series DataFrame is cached for the run. ``df_cache`` (optional
    dict) keeps it cached for later configs of the same (dataset,
    partitions, scale, seed) to amortize upload; the caller unpersists
    what the dict holds. Without one, the frame is unpersisted before
    this returns or raises.

    ``mode='batch'`` (default): warm call, then batch wall time / Q —
    includes the fixed Spark action cost, which at tier sizes is the
    dominant term for every method equally (documented in
    EXPERIMENTS.md).

    ``mode='marginal'``: time one action answering Q queries and one
    answering 3Q (the query batch repeated); the difference / 2Q is the
    per-query engine cost *through the executors* with the identical
    shipping/build cost of the two actions cancelled out. Used for the
    paper-scale runs where engine work must be separated from transport.

    Returns ``{"ms_per_query": float, "result": pandas DataFrame}``.
    """
    key = (cfg.dataset, cfg.partitions, cfg.scale, cfg.seed)
    df = None if df_cache is None else df_cache.get(key)
    try:
        if df is None:
            X = make_dataset(cfg.dataset, scale=cfg.scale, seed=cfg.seed)
            df = series_df(spark, X, num_partitions=cfg.partitions).cache()
            if df_cache is not None:
                df_cache[key] = df
            df.count()
        queries = make_queries(cfg.dataset, cfg.n_queries, scale=cfg.scale,
                               seed=cfg.seed)
        summary = None
        if cfg.method == "SOFA":
            summary = fit_sfa_spark(df, fraction=cfg.sampling, seed=cfg.seed)
        token = f"{cfg.dataset}:{cfg.scale}:{cfg.partitions}:{cfg.seed}:" \
                f"{cfg.method}:{cfg.sampling}"
        method_key = METHOD_KEYS[cfg.method]

        def call(qs, use_token):
            return exact_knn(df, qs, k=cfg.k, method=method_key,
                             summary=summary, cache_token=use_token).toPandas()

        if mode == "marginal":
            # cache_token=None: both actions deterministically ship + build,
            # so those costs subtract out exactly
            call(queries, None)  # JIT/page-cache warm-up
            t0 = time.perf_counter()
            result = call(queries, None)
            t_small = time.perf_counter() - t0
            t0 = time.perf_counter()
            call(np.concatenate([queries] * 3, axis=0), None)
            t_big = time.perf_counter() - t0
            ms = max(0.0, (t_big - t_small) / (2 * len(queries)) * 1000.0)
            return {"ms_per_query": ms, "result": result}

        call(queries, token)  # warm-up: builds engines into the executor cache
        t0 = time.perf_counter()
        result = call(queries, token)
        dt = time.perf_counter() - t0
        return {"ms_per_query": dt / len(queries) * 1000.0, "result": result}
    finally:
        if df_cache is None and df is not None:
            df.unpersist()
