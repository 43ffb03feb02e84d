"""Spark-layer integration tests: distributed exact k-NN, MCB-on-Spark,
the GEMINI DataFrame plan, and the DuckDB oracle on all of them."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F
from pyspark.sql.types import (DoubleType, IntegerType, LongType, StructField,
                               StructType)

from repro.baselines import flat_knn
from repro.core.znorm import znormalize
from repro.datasets.registry import make_dataset, make_queries
from repro.distrib import (exact_knn, fit_sfa_spark, gemini_knn_sql,
                           series_df, to_matrix, with_words)
from repro.distrib import cache
from repro.distrib.dataset import read_rows, series_table
from repro.distrib.search import METHODS, _full_pass, _merge
from repro.distrib.transform import WORDS_SCHEMA, _array_literal
from repro.experiments.tlb import fit_variants, tlb_spark
from repro.oracle import assert_equivalent
from repro.summaries.sfa import MIN_SAMPLE, SFASummary
from repro.summaries.simd import mindist2_table
from tests.helpers import KNN_SQL, long_table, znormed

N, LEN, NPART = 300, 64, 4


@pytest.fixture(scope="module")
def data():
    X = znormed(N, LEN, seed=42)
    Q = znormed(4, LEN, seed=43)
    return X, Q


@pytest.fixture(scope="module")
def df(spark, data):
    X, _ = data
    d = series_df(spark, X, num_partitions=NPART).cache()
    d.count()
    yield d
    d.unpersist()


@pytest.fixture(scope="module")
def summary(df):
    return fit_sfa_spark(df, fraction=0.5, l=8, alphabet=32, seed=1)


# ------------------------------------------------------------------ dataset
def test_series_df_roundtrip(spark, data):
    X, _ = data
    d = series_df(spark, X, num_partitions=3)
    assert d.rdd.getNumPartitions() == 3
    ids, X2 = to_matrix(d.toArrow())
    assert sorted(ids.tolist()) == list(range(N))
    np.testing.assert_allclose(X2, X[ids], atol=1e-6)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_series_df_rejects_non_finite_rows(spark, data, bad):
    X = data[0].copy()
    X[7, 3] = float(bad)
    with pytest.raises(ValueError, match="finite"):
        series_df(spark, X)


def test_to_matrix_sorts_by_id():
    table = pa.table({"id": [3, 1, 2],
                      "series": [np.ones(4) * i for i in (3, 1, 2)]})
    ids, X = to_matrix(table)
    assert ids.tolist() == [1, 2, 3]
    np.testing.assert_allclose(X[:, 0], [1, 2, 3])


def test_series_df_custom_ids(spark):
    X = znormed(5, 16, seed=1)
    d = series_df(spark, X, ids=np.array([10, 20, 30, 40, 50]))
    assert sorted(r["id"] for r in d.select("id").collect()) == [10, 20, 30, 40, 50]


def _layout(X, layout):
    """``X`` as a C-order, Fortran-order or strided (non-contiguous) array."""
    if layout == "C":
        return np.ascontiguousarray(X)
    if layout == "F":
        return np.asfortranarray(X)
    big = np.zeros((2 * X.shape[0], 3 * X.shape[1]))
    big[::2, ::3] = X
    return big[::2, ::3]


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_series_df_round_trips_bit_exactly(spark, layout):
    g = np.random.default_rng(5)
    X = g.standard_normal((40, 24))
    X[0, :6] = [-0.0, 5e-324, 2.2250738585072014e-308, 1 / 3, 1.7976931348623157e308, -1e-300]
    ids = g.permutation(40) * 7 + 2**40
    Xl = _layout(X, layout)
    assert Xl.flags.c_contiguous == (layout == "C")
    got_ids, got = to_matrix(series_df(spark, Xl, ids=ids, num_partitions=3).toArrow())
    order = np.argsort(ids)
    assert got_ids.tolist() == ids[order].tolist()
    assert np.array_equal(got.view(np.int64), X[order].view(np.int64))


def test_series_df_keeps_each_id_in_its_hash_partition(spark):
    ids = np.random.default_rng(6).permutation(200) * 13 - 500
    d = series_df(spark, znormed(200, 8, seed=6), ids=ids, num_partitions=5)
    ref = spark.createDataFrame([(int(i),) for i in ids], "id long").repartition(5, F.col("id"))

    def where(frame):
        rows = frame.select("id", F.spark_partition_id().alias("p")).collect()
        return {r.id: r.p for r in rows}

    assert where(d) == where(ref)


def _list_column(rows):
    return pa.array(rows, pa.list_(pa.float64()))


def test_read_rows_handles_slices_chunks_and_zero_rows():
    X = znormed(10, 8, seed=3).astype(np.float64)
    table = series_table(X, ids=np.arange(10) + 100)
    sliced = table.to_batches()[0].slice(3, 4)
    ids, got = read_rows(sliced)
    assert ids.tolist() == [103, 104, 105, 106]
    assert np.array_equal(got, X[3:7])
    chunked = pa.Table.from_batches([table.slice(0, 6).to_batches()[0],
                                     table.slice(6).to_batches()[0]])
    assert chunked.column("series").num_chunks == 2
    ids, got = read_rows(chunked)
    assert ids.tolist() == list(range(100, 110))
    assert np.array_equal(got, X)
    for empty in (table.slice(0, 0), table.to_batches()[0].slice(0, 0),
                  pa.Table.from_batches([], table.schema)):
        ids, got = read_rows(empty)
        assert ids.shape == (0,) and got.shape[0] == 0


#: Rows no reader may answer, and what the error names: one bad value, a
#: null, ragged rows whose total length is still a multiple of the series
#: length, or rows of length zero.
BAD_ROWS = {"nan": "finite", "inf": "finite", "null value": "must not be null",
            "null row": "must not be null", "ragged": "one non-zero length",
            "empty rows": "one non-zero length"}


def _bad_rows(case, X):
    rows = [list(map(float, x)) for x in X]
    if case == "nan":
        rows[2][5] = np.nan
    elif case == "inf":
        rows[1][0] = -np.inf
    elif case == "null value":
        rows[3][4] = None
    elif case == "null row":
        rows[0] = None
    elif case == "ragged":
        rows[0], rows[1] = rows[0][:-1], rows[1] + [0.5]
    elif case == "empty rows":
        rows = [[] for _ in rows]
    elif case == "short":  # every row one value shorter than the series length
        rows = [r[:-1] for r in rows]
    return rows


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
@pytest.mark.parametrize("kind", ["table", "batch"])
def test_read_rows_rejects_bad_rows(case, kind):
    X = znormed(8, 16, seed=4)
    table = pa.table({"id": np.arange(8), "series": _list_column(_bad_rows(case, X))})
    data = table if kind == "table" else table.to_batches()[0]
    with pytest.raises(ValueError, match=BAD_ROWS[case]):
        read_rows(data)
    with pytest.raises(ValueError, match=BAD_ROWS[case]):
        to_matrix(data)


def test_read_rows_rejects_null_id():
    table = pa.table({"id": pa.array([0, None], pa.int64()),
                      "series": _list_column([[1.0, 2.0], [3.0, 4.0]])})
    with pytest.raises(ValueError, match="must not be null"):
        read_rows(table)


# ---------------------------------------------------------------------- mcb
def test_fit_sfa_spark_valid_summary(summary):
    assert summary.l == 8
    assert summary.edges.shape == (8, 33)
    assert (np.diff(summary.edges[:, 1:-1], axis=1) >= -1e-12).all()


def test_fit_sfa_spark_small_fraction_falls_back(spark):
    X = znormed(100, 32, seed=2)
    d = series_df(spark, X)
    s = fit_sfa_spark(d, fraction=0.001, l=4, alphabet=8)
    # fell back to the first MIN_SAMPLE rows rather than failing
    ids, _ = to_matrix(d.limit(MIN_SAMPLE).toArrow())
    assert len(ids) == MIN_SAMPLE == 64
    exp = SFASummary.fit(X[ids], l=4, alphabet=8)
    np.testing.assert_array_equal(s.coeffs, exp.coeffs)
    np.testing.assert_array_equal(s.imag, exp.imag)
    np.testing.assert_array_equal(s.edges, exp.edges)


def test_fit_sfa_spark_matches_local_fit_distribution(df, data, summary):
    # learned bins must cover the bulk of the data's component values
    X, _ = data
    comps = summary.approx(X)
    words = summary.words_from_approx(comps)
    assert words.min() >= 0 and words.max() <= 31


# ------------------------------------------------------------- exact search
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", [1, 3])
def test_exact_knn_matches_brute_force(spark, df, data, summary, method, k):
    X, Q = data
    res = exact_knn(df, Q, k=k, method=method, summary=summary,
                    leaf_size=32).toPandas().sort_values(["query_id", "rank"])
    exp = flat_knn(X, Q, k=k)
    for qi in range(len(Q)):
        got = res[res.query_id == qi]
        assert got.series_id.tolist() == [i for _, i in exp[qi]]
        np.testing.assert_allclose(got.dist.tolist(),
                                   [d for d, _ in exp[qi]], atol=1e-5)


@pytest.mark.parametrize("method", ["sofa", "flat"])
def test_exact_knn_against_duckdb_oracle(spark, df, data, summary, method):
    """Full-pipeline oracle: the Spark result frame equals brute-force
    k-NN expressed in SQL over exploded series tables."""
    X, Q = data
    k = 2
    res = exact_knn(df, Q, k=k, method=method, summary=summary, leaf_size=32)
    assert_equivalent(res, KNN_SQL.format(k=k),
                      data_long=long_table(X, "series_id"),
                      queries_long=long_table(Q, "query_id"))


def test_exact_knn_requires_summary_for_sofa(df, data):
    _, Q = data
    with pytest.raises(ValueError):
        exact_knn(df, Q, method="sofa")


def test_exact_knn_rejects_unknown_method(df, data):
    _, Q = data
    with pytest.raises(ValueError):
        exact_knn(df, Q, method="faiss-gpu")


@pytest.mark.parametrize("bad", ["nan", "inf", "short"])
def test_exact_knn_rejects_bad_query(df, data, summary, bad):
    Q = data[1].copy()
    if bad == "short":
        Q = Q[:, 1:]
    else:
        Q[1, 5] = float(bad)
    with pytest.raises(ValueError):
        exact_knn(df, Q, summary=summary, method="sofa")


def test_exact_knn_with_cache_token_is_stable(spark, df, data, summary):
    X, Q = data
    a = exact_knn(df, Q, k=1, method="sofa", summary=summary, leaf_size=32,
                  cache_token="t1").toPandas().sort_values("query_id")
    b = exact_knn(df, Q, k=1, method="sofa", summary=summary, leaf_size=32,
                  cache_token="t1").toPandas().sort_values("query_id")
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))


def test_cache_hit_drains_shipped_rows(data):
    """A Python worker whose input is left unread is not reused, so a hit
    must still consume its partition's batches."""
    X, Q = data
    batch = series_table(X).to_batches()[0]
    run = _full_pass("flat", Q, 1, None, 128, "drain-test")
    try:
        for _ in range(2):  # build, then hit
            batches = iter([batch])
            assert sum(b.num_rows for b in run(batches)) == len(Q)
            assert next(batches, None) is None
    finally:
        cache.clear()


def test_exact_knn_single_partition(spark, data, summary):
    X, Q = data
    d1 = series_df(spark, X, num_partitions=1)
    res = exact_knn(d1, Q, k=1, method="messi", leaf_size=32).toPandas()
    exp = flat_knn(X, Q, k=1)
    got = res.sort_values("query_id").series_id.tolist()
    assert got == [exp[qi][0][1] for qi in range(len(Q))]


MERGED = StructType([StructField("query_id", LongType()),
                     StructField("series_id", LongType()),
                     StructField("dist", DoubleType()),
                     StructField("rank", IntegerType(), nullable=False)])


@pytest.mark.parametrize("method", METHODS)
def test_exact_knn_empty_inputs_keep_schema(df, data, summary, method):
    X, Q = data
    for frame, queries in ((df.limit(0), Q), (df, Q[:0])):
        res = exact_knn(frame, queries, k=3, method=method, summary=summary, leaf_size=32)
        assert res.schema == MERGED
        out = res.toPandas()
        assert out.empty
        assert out.dtypes.tolist() == ["int64", "int64", "float64", "int32"]


def test_exact_knn_runs_at_most_two_jobs_without_exchange(spark, df, data, summary):
    sc = spark.sparkContext
    sc.setJobGroup("exact-knn-one-action", "per-partition top-k, merged on the driver")
    try:
        res = exact_knn(df, data[1], k=3, method="sofa", summary=summary, leaf_size=32)
        assert len(res.toPandas()) == 3 * len(data[1])
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert 1 <= len(sc.statusTracker().getJobIdsForGroup("exact-knn-one-action")) <= 2
    plan = res._jdf.queryExecution().executedPlan().toString()
    for node in ("Exchange", "Window"):
        assert node not in plan


# ------------------------------------------------------------- driver merge
def _partition_rows(*parts, seed=0):
    """Per-partition ``(query_id, series_id, dist)`` rows as the driver
    collects them: concatenated, in no particular order."""
    rows = [r for part in parts for r in part]
    pdf = pd.DataFrame(rows, columns=["query_id", "series_id", "dist"]).astype(
        {"query_id": np.int64, "series_id": np.int64, "dist": np.float64})
    order = np.random.default_rng(seed).permutation(len(pdf))
    return pdf.iloc[order].reset_index(drop=True)


def _lexsort_merge(local, k):
    """Reference: one ``(query_id, dist, series_id)`` lexsort, first k per query."""
    q, s, d = (local[c].to_numpy() for c in ("query_id", "series_id", "dist"))
    order = np.lexsort((s, d, q))
    out = []
    for qi in np.unique(q):
        rows = order[q[order] == qi][:k]
        out += [(qi, s[i], d[i], r) for r, i in enumerate(rows, 1)]
    return out


def _assert_merged(local, k):
    got = _merge(local, k)
    assert got.columns.tolist() == ["query_id", "series_id", "dist", "rank"]
    assert got.dtypes.tolist() == ["int64", "int64", "float64", "int32"]
    assert list(got.itertuples(index=False, name=None)) == _lexsort_merge(local, k)
    return got


_ULP = np.nextafter(0.3, 1.0)

MERGE_CASES = {
    # the same distance in three partitions; the larger ids come first
    "ties_across_partitions": ([(0, 9, 1.0), (0, 4, 2.0)], [(0, 7, 1.0), (0, 2, 1.5)],
                               [(0, 3, 1.0), (0, 1, 2.0)]),
    # 0.1 + 0.2 is one ulp above 0.3; the exact duplicates order by id
    "float_duplicates": ([(1, 5, 0.1 + 0.2), (1, 8, 0.3)], [(1, 6, 0.3), (1, 2, _ULP)],
                         [(1, 0, 0.3), (1, 4, 0.1 + 0.2)]),
    # query 0 has fewer than k rows in total
    "fewer_than_k": ([(0, 1, 0.5)], [(0, 0, 0.5), (2, 3, 1.0)], []),
    # query 1 has no rows at all
    "query_without_rows": ([(0, 1, 2.0), (2, 5, 1.0)], [(2, 6, 1.0), (0, 2, 0.0)]),
    # every partition empty: an empty frame, still with the four typed columns
    "no_rows": ([], []),
}


@pytest.mark.parametrize("case", sorted(MERGE_CASES))
@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_merge_matches_lexsort_reference(case, k):
    _assert_merged(_partition_rows(*MERGE_CASES[case]), k)


def test_merge_breaks_ties_by_series_id_and_ranks_from_one():
    got = _assert_merged(_partition_rows(*MERGE_CASES["ties_across_partitions"]), 4)
    assert got.series_id.tolist() == [3, 7, 9, 2]
    assert got["rank"].tolist() == [1, 2, 3, 4]
    got = _assert_merged(_partition_rows(*MERGE_CASES["float_duplicates"]), 6)
    assert got.series_id.tolist() == [0, 6, 8, 2, 4, 5]


def test_merge_skips_a_query_without_rows_and_keeps_short_ones():
    got = _assert_merged(_partition_rows(*MERGE_CASES["query_without_rows"]), 10)
    assert got.query_id.tolist() == [0, 0, 2, 2]
    got = _assert_merged(_partition_rows(*MERGE_CASES["fewer_than_k"]), 10)
    assert got.query_id.tolist() == [0, 0, 2]


@pytest.mark.parametrize("k", [1, 5, 40])
def test_merge_random_ties_match_lexsort_reference(k):
    g = np.random.default_rng(k)
    parts = [[(int(g.integers(0, 7)), int(sid), float(g.integers(0, 4)))
              for sid in g.choice(1000, size=int(g.integers(0, 30)), replace=False)]
             for _ in range(5)]
    _assert_merged(_partition_rows(*parts, seed=k), k)


# -------------------------------------------------- GEMINI as DataFrame plan
def test_with_words_schema_and_values(spark, df, summary, data):
    X, _ = data
    out = with_words(df, summary).toPandas().sort_values("id")
    words = np.stack(out.word.to_numpy()).astype(np.uint8)
    np.testing.assert_array_equal(words, summary.words(X[out.id.to_numpy()]))


def test_gemini_sql_plan_exact(spark, df, data, summary):
    X, Q = data
    dfw = with_words(df, summary)
    out = gemini_knn_sql(dfw, summary, Q[0], k=3).toPandas()
    exp = flat_knn(X, Q[0][None, :], k=3)[0]
    assert out.series_id.tolist() == [i for _, i in exp]
    np.testing.assert_allclose(out.dist.tolist(), [d for d, _ in exp],
                               atol=1e-5)


@pytest.mark.parametrize("bad", ["nan", "inf", "short"])
def test_gemini_sql_rejects_bad_query_before_any_job(spark, df, data, summary, bad):
    q = data[1][0].copy()
    if bad == "short":
        q = q[1:]
    else:
        q[5] = float(bad)
    dfw = with_words(df, summary)
    sc = spark.sparkContext
    sc.setJobGroup("gemini-bad-query", "rejected on the driver")
    try:
        with pytest.raises(ValueError):
            gemini_knn_sql(dfw, summary, q, k=2)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup("gemini-bad-query") == []


@pytest.mark.parametrize("path", ["exact_knn", "gemini_knn_sql"])
@pytest.mark.parametrize("k", [0, -1])
def test_spark_paths_reject_k_below_one_before_any_job(spark, df, data, summary, path, k):
    dfw = with_words(df, summary)
    sc = spark.sparkContext
    sc.setJobGroup("k-below-one", "rejected on the driver")
    try:
        with pytest.raises(ValueError, match="k must be >= 1"):
            if path == "exact_knn":
                exact_knn(df, data[1], k=k, method="sofa", summary=summary)
            else:
                gemini_knn_sql(dfw, summary, data[1][0], k=k)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup("k-below-one") == []


def test_gemini_sql_plan_oracle(spark, df, data, summary):
    X, Q = data
    dfw = with_words(df, summary)
    out = gemini_knn_sql(dfw, summary, Q[1], k=2)
    sql = """
    WITH d AS (
      SELECT s.series_id,
             SUM((q.value - s.value) * (q.value - s.value)) AS d2
      FROM queries_long q JOIN data_long s USING (pos)
      GROUP BY s.series_id
    )
    SELECT series_id, SQRT(d2) AS dist,
           ROW_NUMBER() OVER (ORDER BY d2, series_id) AS rank
    FROM d QUALIFY rank <= 2
    """
    assert_equivalent(out, sql, data_long=long_table(X, "series_id"),
                      queries_long=long_table(Q[1][None, :], "query_id"))


def test_gemini_sql_empty_input(spark, df, data, summary):
    dfw = with_words(df, summary).limit(0)
    out = gemini_knn_sql(dfw, summary, data[1][0], k=3)
    assert out.columns == ["series_id", "dist", "rank"]
    assert out.toPandas().empty


def _words_frame(spark, X, summary, ids):
    """A word frame made without ``with_words``, so no plan node of the
    input itself runs Python."""
    pdf = pd.DataFrame({"id": ids.astype(np.int64), "series": list(X.astype(np.float64)),
                        "word": list(summary.words(X).astype(np.int32))})
    d = spark.createDataFrame(pdf, WORDS_SCHEMA).repartition(NPART).cache()
    d.count()
    return d


@pytest.fixture(scope="module")
def native_words(spark, data, summary):
    X, _ = data
    d = _words_frame(spark, X, summary, np.arange(len(X)))
    yield d
    d.unpersist()


def test_gemini_sql_plan_has_no_python_stage(native_words, data, summary):
    out = gemini_knn_sql(native_words, summary, data[1][2], k=5)
    assert len(out.toPandas()) == 5
    plan = out._jdf.queryExecution().executedPlan().toString()
    for node in ("ArrowEvalPython", "BatchEvalPython", "MapInPandas", "MapInArrow"):
        assert node not in plan


def test_gemini_sql_runs_at_most_two_jobs(spark, native_words, data, summary):
    sc = spark.sparkContext
    sc.setJobGroup("gemini-one-query", "seed top-k, then the filtered top-k")
    try:
        gemini_knn_sql(native_words, summary, data[1][3], k=5).toPandas()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert 1 <= len(sc.statusTracker().getJobIdsForGroup("gemini-one-query")) <= 2


def test_gemini_sql_literals_round_trip_bit_exactly(spark, data, summary):
    q = data[1][3].astype(np.float64)
    table = (mindist2_table(summary.approx(q[None, :])[0], summary.edges)
             * summary.weights[:, None]).ravel()
    extremes = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3,
                         np.nextafter(1.0, 2.0), 1.7976931348623157e308, -1e-300])
    for values in (q, table, extremes):
        got = spark.range(1).select(_array_literal(values).alias("a")).first().a
        assert np.array_equal(np.array(got).view(np.int64), values.view(np.int64))


@pytest.fixture(scope="module")
def dup(spark):
    """Duplicate-heavy integer series (exact distances, many exact ties)
    whose ids do not follow row order."""
    g = np.random.default_rng(11)
    X = np.repeat(g.integers(-2, 3, (40, 32)), 5, axis=0).astype(np.float64)
    ids = g.permutation(len(X)) * 3 + 7
    Q = np.vstack([X[[0, 57]], g.integers(-2, 3, (2, 32))]).astype(np.float64)
    summ = SFASummary.fit(X, l=8, alphabet=16)
    d = _words_frame(spark, X, summ, ids)
    yield X, ids, Q, summ, d
    d.unpersist()


def _brute(X, ids, q, k):
    d2 = ((X - q) ** 2).sum(axis=1)
    order = np.lexsort((ids, d2))[:k]
    return ids[order].tolist(), np.sqrt(d2[order])


@pytest.mark.parametrize("k", [1, 3, 7, 205])
def test_gemini_sql_ties_follow_brute_force_order(dup, k):
    X, ids, Q, summ, d = dup
    for q in Q:
        out = gemini_knn_sql(d, summ, q, k=k).toPandas()
        exp_ids, exp_dist = _brute(X, ids, q, k)
        assert out.series_id.tolist() == exp_ids
        assert np.array_equal(out.dist.to_numpy(), exp_dist)
        assert out["rank"].tolist() == list(range(1, len(exp_ids) + 1))


def test_gemini_sql_single_row_frame(spark, dup):
    X, ids, Q, summ, _ = dup
    one = _words_frame(spark, X[:1], summ, ids[:1])
    for k in (1, 3):
        out = gemini_knn_sql(one, summ, Q[2], k=k).toPandas()
        assert out.series_id.tolist() == [int(ids[0])]
        assert np.array_equal(out.dist.to_numpy(), _brute(X[:1], ids[:1], Q[2], 1)[1])
    one.unpersist()


# ------------------------------------------- Arrow shipping in Python stages
def _bad_frame(spark, case, X):
    """One partition, one Arrow batch, rows from ``_bad_rows``: made without
    ``series_df``, which would reject them on the driver."""
    table = pa.table({"id": np.arange(len(X)), "series": _list_column(_bad_rows(case, X))})
    return spark.createDataFrame(table).coalesce(1)


#: In a Spark stage, rows of one length other than the summary's or the
#: queries' are rejected too.
SPARK_BAD = {**BAD_ROWS, "short": "length"}


@pytest.mark.parametrize("case", sorted(SPARK_BAD))
def test_with_words_rejects_bad_rows(spark, data, summary, case):
    words = with_words(_bad_frame(spark, case, data[0][:8]), summary)
    with pytest.raises(PythonException, match=f"ValueError: .*{SPARK_BAD[case]}"):
        words.collect()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", sorted(SPARK_BAD))
def test_exact_knn_rejects_bad_rows(spark, data, summary, method, case):
    frame = _bad_frame(spark, case, data[0][:8])
    with pytest.raises(PythonException, match=f"ValueError: .*{SPARK_BAD[case]}"):
        exact_knn(frame, data[1], k=2, method=method, summary=summary, leaf_size=4)


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_fit_sfa_spark_rejects_bad_rows(spark, data, case):
    frame = _bad_frame(spark, case, data[0][:70])
    with pytest.raises(ValueError, match=BAD_ROWS[case]):
        fit_sfa_spark(frame, fraction=1.0, l=8, alphabet=32)


def test_fit_sfa_spark_rejects_rows_too_short_for_the_word(spark, data):
    frame = _bad_frame(spark, "short", data[0][:70, :9])
    with pytest.raises(ValueError, match="candidate components"):
        fit_sfa_spark(frame, fraction=1.0, l=8, alphabet=32)


def test_full_pass_reads_split_and_zero_row_batches(data):
    X, Q = data
    batches = series_table(X).to_batches(max_chunksize=100)
    empty = batches[0].slice(0, 0)
    run = _full_pass("flat", Q, 2, None, 128, None)
    out = pa.Table.from_batches(list(run(iter([empty, *batches, empty]))))
    exp = flat_knn(X, Q, k=2)
    assert out.column("query_id").to_pylist() == [0, 0, 1, 1, 2, 2, 3, 3]
    assert out.column("series_id").to_pylist() == [i for r in exp for _, i in r]
    assert out.column("dist").to_pylist() == [d for r in exp for d, _ in r]


def test_empty_partitions_answer_correctly(spark, data, summary):
    X, Q = data
    small = series_df(spark, X[:6], num_partitions=8)
    assert 0 in small.rdd.glom().map(len).collect()
    out = with_words(small, summary).toPandas().sort_values("id")
    assert out.id.tolist() == list(range(6))
    np.testing.assert_array_equal(np.stack(out.word.to_numpy()), summary.words(X[:6]))
    exp = flat_knn(X[:6], Q, k=3)
    for method in METHODS:
        res = exact_knn(small, Q, k=3, method=method, summary=summary,
                        leaf_size=4).toPandas().sort_values(["query_id", "rank"])
        assert res.series_id.tolist() == [i for r in exp for _, i in r], method


@pytest.fixture
def collected_plans(spark, monkeypatch):
    """Executed plans of every frame that ``toPandas`` or ``collect`` ran
    while the test runs."""
    plans = []
    cls = type(spark.range(1))
    for name in ("toPandas", "collect"):
        def spy(self, *args, _run=getattr(cls, name), **kwargs):
            out = _run(self, *args, **kwargs)
            plans.append(self._jdf.queryExecution().executedPlan().toString())
            return out
        monkeypatch.setattr(cls, name, spy)
    return plans


@pytest.mark.parametrize("path", ["with_words", "exact_knn", "tlb_spark"])
def test_python_stages_map_in_arrow(spark, df, data, summary, collected_plans, path):
    if path == "with_words":
        with_words(df, summary).collect()
    elif path == "exact_knn":
        exact_knn(df, data[1], k=2, method="sofa", summary=summary, leaf_size=32)
    else:
        train = znormed(30, 16, seed=7)
        tlb_spark(spark, train, train[:2], fit_variants(train, (4,), l=4), partitions=2)
    assert any("MapInArrow" in plan for plan in collected_plans)
    assert not any("MapInPandas" in plan for plan in collected_plans)
