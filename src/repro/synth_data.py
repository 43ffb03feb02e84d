"""Synthetic data-series collections as Spark DataFrames.

Entry points over the 17-dataset registry (``repro.datasets``, Table I
analogs): deterministic in ``seed``, so the DuckDB oracle and every
engine see identical input.
"""
import numpy as np
from pyspark.sql import DataFrame, SparkSession


def data_series(spark: SparkSession, *, name: str = "LenDB", scale: float = 0.05,
                seed: int = 7, num_partitions: int | None = None) -> DataFrame:
    """A z-normalized series collection ``(id long, series array<double>)``
    from the 17-dataset registry (Table I analogs)."""
    from repro.datasets.registry import make_dataset
    from repro.distrib.dataset import series_df

    x = make_dataset(name, scale=scale, seed=seed)
    return series_df(spark, x, num_partitions=num_partitions)


def data_series_queries(*, name: str = "LenDB", n_queries: int = 10,
                        scale: float = 0.05, seed: int = 7) -> np.ndarray:
    """Held-out query series matching :func:`data_series` (NumPy matrix —
    queries are broadcast to executors, not distributed)."""
    from repro.datasets.registry import make_queries

    return make_queries(name, n_queries, scale=scale, seed=seed)
