"""Series collections as Spark DataFrames: ``(id long, series array<double>)``.

The series column travels as Arrow ``list<double>`` in both directions:
``series_table`` lays a float64 matrix out as one flat value buffer plus
int32 row offsets, which Spark reads as ``array<double>`` without a
per-row Python object, and ``read_rows`` (``to_matrix`` when sorted by id)
turns an Arrow table or record batch back into one ``(N, n)`` float64
matrix with a single reshape, after checking the rows. Both conversions
are bit-exact.

``series_df`` hash-partitions by ``id`` so partition contents are
deterministic across actions — the property the executor-side engine
cache (``repro.distrib.cache``) relies on.
"""
import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.distance import check_series


def list_array(M: np.ndarray) -> pa.ListArray:
    """Arrow ``list<T>`` whose row ``i`` is ``M[i]``: the values of ``M`` in
    row-major order plus int32 offsets, with no per-row Python object.

    Raises ``ValueError`` if ``M`` has more values than int32 offsets reach.
    """
    rows, width = M.shape
    offsets = np.arange(rows + 1, dtype=np.int64) * width
    if offsets[-1] > np.iinfo(np.int32).max:
        raise ValueError(f"{rows} x {width} values exceed the int32 offsets of one list array")
    return pa.ListArray.from_arrays(offsets.astype(np.int32), np.ascontiguousarray(M).ravel())


def series_table(X: np.ndarray, ids: np.ndarray | None = None) -> pa.Table:
    """``(id int64, series list<double>)`` Arrow table of the rows of ``X``.

    ``ids`` default to row positions. Raises ``ValueError`` if any value is
    NaN or inf, or an id is not an int64.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    check_series(X, "series")
    ids = np.arange(len(X), dtype=np.int64) if ids is None else np.asarray(ids)
    return pa.table({"id": pa.array(ids, pa.int64()), "series": list_array(X)})


def series_df(spark: SparkSession, X: np.ndarray,
              ids: np.ndarray | None = None,
              num_partitions: int | None = None) -> DataFrame:
    """Wrap a series matrix ``(N, n)`` as a partitioned Spark DataFrame.

    Raises ``ValueError`` on the driver if any value is NaN or inf.
    """
    df = spark.createDataFrame(series_table(X, ids))
    if num_partitions is not None:
        df = df.repartition(num_partitions, F.col("id"))
    return df


def read_rows(data: pa.Table | pa.RecordBatch) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, X)`` of an Arrow ``(id, series)`` table or batch, in row order.

    ``X`` is ``(N, n)`` float64. Raises ``ValueError`` for a null id or
    series, a null value inside a series, rows of different or zero
    length, and NaN or inf values.
    """
    ids, series = data.column("id"), data.column("series")
    if isinstance(series, pa.ChunkedArray):
        ids, series = ids.combine_chunks(), series.combine_chunks()
    if ids.null_count or series.null_count:
        raise ValueError("series rows and their ids must not be null")
    values = series.flatten()
    if values.null_count:
        raise ValueError("series values must not be null")
    lengths = np.diff(series.offsets.to_numpy())
    n = int(lengths[0]) if len(lengths) else 0
    if (lengths != n).any() or (len(lengths) and n == 0):
        raise ValueError(f"series rows must have one non-zero length, "
                         f"got lengths {lengths.min()} to {lengths.max()}")
    X = values.to_numpy().astype(np.float64, copy=False).reshape(len(lengths), n)
    check_series(X, "series")
    return ids.to_numpy().astype(np.int64, copy=False), X


def to_matrix(data: pa.Table | pa.RecordBatch) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, X)`` of an Arrow ``(id, series)`` table or batch, sorted by
    id for determinism; checked as in ``read_rows``."""
    ids, X = read_rows(data)
    order = np.argsort(ids, kind="stable")
    return ids[order], X[order]
