"""Series collections as Spark DataFrames: ``(id long, series array<double>)``.

``series_df`` hash-partitions by ``id`` so partition contents are
deterministic across actions — the property the executor-side engine
cache (``repro.distrib.cache``) relies on.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.distance import check_series

SERIES_SCHEMA = "id long, series array<double>"


def series_df(spark: SparkSession, X: np.ndarray,
              ids: np.ndarray | None = None,
              num_partitions: int | None = None) -> DataFrame:
    """Wrap a series matrix ``(N, n)`` as a partitioned Spark DataFrame.

    Raises ``ValueError`` on the driver if any value is NaN or inf.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    check_series(X, "series")
    ids = np.arange(len(X), dtype=np.int64) if ids is None else np.asarray(ids)
    pdf = pd.DataFrame({"id": ids, "series": list(X)})
    df = spark.createDataFrame(pdf, schema=SERIES_SCHEMA)
    if num_partitions is not None:
        df = df.repartition(num_partitions, F.col("id"))
    return df


def to_matrix(pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """(ids, X) from a collected pandas chunk, sorted by id for determinism."""
    ids = pdf["id"].to_numpy(dtype=np.int64)
    X = np.stack(pdf["series"].to_numpy())
    order = np.argsort(ids, kind="stable")
    return ids[order], np.ascontiguousarray(X[order], dtype=np.float32)
