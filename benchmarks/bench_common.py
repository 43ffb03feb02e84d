"""Shared helpers for the table benchmarks.

Each benchmark measures the *warm-index* query path: the series
DataFrame is cached and the per-partition engines are built into the
executor cache by a warm-up call, mirroring the paper's protocol of
building the index once and timing queries. pytest-benchmark rounds
then measure query-batch latency only.
"""
from repro.experiments.runner import SearchConfig, run_search_config
from repro.distrib.search import exact_knn
from repro.experiments.runner import METHOD_KEYS

_DF_CACHE: dict = {}


def warm_search_callable(spark, *, dataset: str, method: str, partitions: int,
                         k: int = 1, n_queries: int = 20, scale: float = 1.0,
                         sampling: float = 0.01):
    """Return a zero-arg callable running one warm exact-kNN query batch."""
    cfg = SearchConfig(dataset=dataset, method=method, partitions=partitions,
                       k=k, n_queries=n_queries, scale=scale,
                       sampling=sampling)
    df, queries, summary, token = run_search_config(spark, cfg, _DF_CACHE)

    def call():
        return exact_knn(df, queries, k=k, method=METHOD_KEYS[method],
                         summary=summary, cache_token=token).toPandas()

    call()  # build engines into the executor cache
    return call
