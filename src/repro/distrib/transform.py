"""GEMINI expressed as a Catalyst DataFrame plan with pandas UDFs.

This is the repro-hint path: "lower-bounding distance filtering as a
Spark UDF over partitioned data series". ``with_words`` materializes
the symbolic transformation as a column (the distributed version of
Algorithm 2 over the whole collection); ``gemini_knn_sql`` answers an
exact k-NN query with a pure DataFrame plan:

1. LBD column via a scalar pandas UDF over the word column (the
   table-gather LBD kernel runs inside the UDF batch);
2. seed BSF = max true distance among the k smallest-LBD candidates
   (window row_number over lbd);
3. candidate filter ``lbd <= bsf`` — GEMINI's guarantee: every true
   k-NN satisfies ``lbd <= ed <= bsf`` so no false dismissals;
4. exact distance UDF on survivors, window top-k.

Slower than the tree path (it scans all N words per query) but fully
inspectable by Catalyst and checkable by the DuckDB oracle.
"""
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf

from repro.core.distance import check_series
from repro.summaries.common import SymbolicSummary
from repro.summaries.simd import batch_mindist2

WORDS_SCHEMA = "id long, series array<double>, word array<int>"


def with_words(df: DataFrame, summary: SymbolicSummary) -> DataFrame:
    """Add the symbolic word of every series as a column (distributed
    Algorithm 2 / iSAX transform)."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if not len(pdf):
                continue
            X = np.stack(pdf["series"].to_numpy())
            words = summary.words(X).astype(np.int32)
            yield pd.DataFrame({"id": pdf["id"].to_numpy(),
                                "series": pdf["series"].to_numpy(),
                                "word": list(words)})

    return df.mapInPandas(run, schema=WORDS_SCHEMA)


def _lbd_udf(summary: SymbolicSummary, qvals: np.ndarray):
    @pandas_udf("double")
    def lbd(words: pd.Series) -> pd.Series:
        W = np.stack(words.to_numpy()).astype(np.uint8)
        d2 = batch_mindist2(qvals, W, summary.edges, summary.weights)
        return pd.Series(np.sqrt(d2))

    return lbd


def _ed_udf(q: np.ndarray):
    @pandas_udf("double")
    def edist(series: pd.Series) -> pd.Series:
        X = np.stack(series.to_numpy())
        d = X - q[None, :]
        return pd.Series(np.sqrt(np.einsum("ij,ij->i", d, d)))

    return edist


def gemini_knn_sql(df_words: DataFrame, summary: SymbolicSummary,
                   query: np.ndarray, k: int = 1) -> DataFrame:
    """Exact k-NN of one query as a DataFrame plan (see module docstring).

    ``df_words`` comes from ``with_words``. Returns ``(series_id, dist,
    rank)`` for the k nearest series, ties broken by id. Raises
    ``ValueError`` on the driver, before any job runs, for a non-finite
    query or one whose length differs from the summary's series length.
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    check_series(query[None, :], "query", summary.n)
    qvals = summary.approx(query[None, :])[0]
    lbd = _lbd_udf(summary, qvals)
    edist = _ed_udf(query)

    scored = df_words.withColumn("lbd", lbd(F.col("word")))

    # seed BSF: true distances of the k most promising candidates
    w_lbd = Window.orderBy(F.col("lbd").asc(), F.col("id").asc())
    seeds = (scored.withColumn("r", F.row_number().over(w_lbd))
             .filter(F.col("r") <= k)
             .withColumn("dist", edist(F.col("series"))))
    bsf = seeds.agg(F.max("dist").alias("bsf")).collect()[0]["bsf"]

    # GEMINI filter + exact verification + global top-k. The small epsilon
    # absorbs float32/float64 round-off between the UDF's lbd and dist so
    # a true neighbor sitting exactly on the boundary is never dismissed.
    surv = (scored.filter(F.col("lbd") <= F.lit(float(bsf) + 1e-9))
            .withColumn("dist", edist(F.col("series"))))
    w_d = Window.orderBy(F.col("dist").asc(), F.col("id").asc())
    return (surv.withColumn("rank", F.row_number().over(w_d))
            .filter(F.col("rank") <= k)
            .select(F.col("id").alias("series_id"), "dist", "rank"))
