"""GEMINI expressed as a Catalyst DataFrame plan of native Spark SQL.

This is the repro-hint path: "lower-bounding distance filtering over
partitioned data series". ``with_words`` materializes the symbolic
transformation as a column (the distributed version of Algorithm 2 over
the whole collection); ``gemini_knn_sql`` answers an exact k-NN query
with Spark SQL lambda expressions over the word and series arrays with a
per-query table literal, so no stage of a query starts a Python worker:

1. squared LBD column: the driver builds the weighted table
   ``T[j, a] = w_j * mindist(q_j, bin a)^2`` as one flat literal, and
   every row sums ``T[j * alphabet + word[j]]`` over its ``l`` symbols;
2. seed BSF: the squared distances of the k rows with the smallest
   ``(lbd2, id)`` (collected) pushed into a ``TopK``;
3. candidate filter ``lbd2 <= TopK.bound2()``, the keep test of every
   exact path -- GEMINI's guarantee: every true k-NN has ``lbd2 <= ed2``
   and an ``ed2`` no larger than the seeds' k-th, so no false dismissals;
4. exact squared distance on survivors against the query literal, top-k
   by ``(ed2, id)``.

Slower than the tree path (it scans all N words per query) but fully
inspectable by Catalyst and checkable by the DuckDB oracle.
"""
from typing import Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.distance import TopK, check_k, check_series
from repro.distrib.dataset import list_array, read_rows
from repro.summaries.common import SymbolicSummary
from repro.summaries.simd import mindist2_table

WORDS_SCHEMA = "id long, series array<double>, word array<int>"


def with_words(df: DataFrame, summary: SymbolicSummary) -> DataFrame:
    """Add the symbolic word of every series as a column (distributed
    Algorithm 2 / iSAX transform).

    The ``id`` and ``series`` Arrow columns pass through as shipped. The
    action that runs the plan raises for a series ``read_rows`` rejects
    (null, ragged or non-finite) or one whose length is not ``summary.n``.
    """

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        for batch in batches:
            if not batch.num_rows:
                continue
            _, X = read_rows(batch)
            words = list_array(summary.words(X).astype(np.int32))
            yield pa.RecordBatch.from_arrays(
                [batch.column("id"), batch.column("series"), words],
                names=["id", "series", "word"])

    return df.mapInArrow(run, schema=WORDS_SCHEMA)


def _array_literal(values: np.ndarray):
    """A constant ``array<double>`` column holding ``values`` bit-exactly.

    One JSON string instead of one literal per element keeps the plan
    small; Catalyst folds it into a single array literal. ``repr`` of a
    finite float64 is its shortest round-trip decimal, so every element
    parses back to the same double.
    """
    text = "[" + ",".join(repr(float(v)) for v in values) + "]"
    return F.from_json(F.lit(text), "array<double>")


def _sum(arr):
    return F.aggregate(arr, F.lit(0.0), lambda acc, x: acc + x)


def gemini_knn_sql(df_words: DataFrame, summary: SymbolicSummary,
                   query: np.ndarray, k: int = 1) -> DataFrame:
    """Exact k-NN of one query as a DataFrame plan (see module docstring).

    ``df_words`` comes from ``with_words``. Returns ``(series_id, dist,
    rank)`` for the k nearest series, ties broken by id; an empty frame
    for an empty input. Raises ``ValueError`` on the driver, before any
    job runs, for ``k < 1``, a non-finite query or one whose length
    differs from the summary's series length.
    """
    check_k(k)
    query = np.asarray(query, dtype=np.float64).ravel()
    check_series(query[None, :], "query", summary.n)
    qvals = summary.approx(query[None, :])[0]
    table = _array_literal(
        (mindist2_table(qvals, summary.edges) * summary.weights[:, None]).ravel())
    q = _array_literal(query)
    alphabet = summary.alphabet

    lbd2 = _sum(F.transform(
        "word", lambda s, j: F.element_at(table, j * alphabet + s + 1)))
    ed2 = _sum(F.zip_with("series", q, lambda a, b: (a - b) * (a - b)))
    scored = df_words.withColumn("lbd2", lbd2)

    # seed BSF: true distances of the k most promising candidates
    seeds = (scored.orderBy("lbd2", "id").limit(k)
             .select("id", ed2.alias("ed2")).collect())
    bsf = TopK(k)
    bsf.push(np.array([r.ed2 for r in seeds]), np.array([r.id for r in seeds], dtype=np.int64))

    # GEMINI filter + exact verification + global top-k
    top = (scored.filter(F.col("lbd2") <= F.lit(float(bsf.bound2())))
           .select("id", ed2.alias("ed2"))
           .orderBy("ed2", "id").limit(k))
    rank = F.row_number().over(Window.orderBy("ed2", "id"))
    return top.select(F.col("id").alias("series_id"),
                      F.sqrt("ed2").alias("dist"), rank.alias("rank"))
