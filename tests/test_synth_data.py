"""Smoke tests for the data-series entry points, wired through the
DuckDB oracle."""
import numpy as np
from pyspark.sql import functions as F

from repro import synth_data
from repro.oracle import assert_equivalent


def test_data_series_oracle_aggregation(spark):
    """A Spark aggregation over a data-series collection must match
    DuckDB on identical input: per-id count and mean."""
    long = synth_data.data_series(spark, name="Iquique", scale=0.02,
                                  num_partitions=2) \
        .select("id", F.explode("series").alias("v"))
    got = long.groupBy("id").agg(F.count("v").alias("n"),
                                 F.avg("v").alias("mean_v"))
    assert_equivalent(
        got,
        "SELECT id, COUNT(v) AS n, AVG(v) AS mean_v FROM long GROUP BY id",
        long=long,
    )


def test_data_series_extension(spark):
    df = synth_data.data_series(spark, name="Iquique", scale=0.02,
                                num_partitions=2)
    pdf = df.toPandas()
    assert {"id", "series"} <= set(pdf.columns)
    X = np.stack(pdf.series.to_numpy())
    np.testing.assert_allclose(X.mean(axis=1), 0, atol=1e-5)  # z-normalized


def test_data_series_queries_shape():
    q = synth_data.data_series_queries(name="Iquique", n_queries=5, scale=0.02)
    assert q.shape == (5, 256)


def test_data_series_deterministic(spark):
    a = synth_data.data_series(spark, name="SALD", scale=0.01).toPandas()
    b = synth_data.data_series(spark, name="SALD", scale=0.01).toPandas()
    a = a.sort_values("id").reset_index(drop=True)
    b = b.sort_values("id").reset_index(drop=True)
    np.testing.assert_allclose(np.stack(a.series), np.stack(b.series))
