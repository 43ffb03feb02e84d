"""Differential suite: every engine on every path against brute force.

The engines sofa, messi, ucr and flat answer the same hostile inputs in
process, one query per call, and through ``exact_knn``; the GEMINI plan
answers them through ``gemini_knn_sql``. Every answer must equal
``tests.helpers.brute_knn`` (direct float64 differences) in ids and order,
ranked by ``(dist, id)``; on the Spark paths the DuckDB oracle judges too.

Inputs: integer rows repeated five times (exact ties), float rows repeated
five times with permuted ids (ties only if every copy gets bit-equal
distances), near-copies far from the origin (distance gaps below the GEMM
identity's round-off), all-zero rows (constant series after z-normalization),
``k >= N``, copies on both sides of the UCR scan's block seam, and a
three-row collection spread over eight partitions, so most partitions are
empty and the rest hold a single row.
"""
import duckdb
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.baselines import flat_knn, ucr_knn
from repro.core.znorm import znormalize
from repro.distrib import exact_knn, gemini_knn_sql, series_df, with_words
from repro.distrib.search import METHODS
from repro.index import build_messi, build_sofa
from repro.summaries.sfa import SFASummary
from tests.helpers import KNN_SQL, brute_knn, long_table, znormed


def _int_ties():
    rng = np.random.default_rng(3)
    X = np.repeat(rng.integers(-2, 3, (40, 32)), 5, axis=0).astype(np.float32)
    Q = np.vstack([X[[0, 57, 123]], rng.integers(-2, 3, (2, 32))]).astype(np.float32)
    return X, rng.permutation(len(X)) * 3 + 7, Q


def _float_dups():
    rng = np.random.default_rng(5)
    base = znormed(40, 256, seed=12)
    X = np.tile(base, (5, 1))
    noisy = (base[:12] + rng.normal(0, 0.3, (12, 256))).astype(np.float32)
    return X, rng.permutation(len(X)), np.concatenate([base, noisy])


def _offset_near_dups():
    """Copies 1 ulp apart, far from the origin: the GEMM identity's
    cancellation error there exceeds the gaps between their distances."""
    rng = np.random.default_rng(6)
    base = znormed(40, 256, seed=13) + np.float32(100)
    X = np.tile(base, (5, 1))
    X += rng.integers(-1, 2, X.shape).astype(np.float32) * np.spacing(np.float32(100))
    noisy = (base[:20] + rng.normal(0, 0.3, (20, 256))).astype(np.float32)
    return X, rng.permutation(len(X)), np.concatenate([base[:20], noisy])


def _zeros():
    rng = np.random.default_rng(7)
    flat = znormalize(rng.uniform(-5, 5, (6, 1)) * np.ones((6, 64))).astype(np.float32)
    base = znormed(12, 64, seed=21)
    X = np.vstack([flat, base, base])
    Q = np.vstack([np.zeros((1, 64)), base[:2],
                   base[2:4] + rng.normal(0, 0.5, (2, 64))]).astype(np.float32)
    return X, rng.permutation(len(X)), Q


def _tiny():
    return znormed(3, 32, seed=31), np.array([5, 17, 40]), znormed(2, 32, seed=32)


def _seam_ties():
    """Copies on both sides of the scan's 2,048-row block seam, the later
    copies holding the smaller ids. The last query differs from row 5 only
    before the first column cut, so those copies reach their full distance,
    the BSF, at the cut where early abandoning tests them."""
    rng = np.random.default_rng(9)
    X = np.tile(rng.integers(-2, 3, (30, 32)), (70, 1)).astype(np.float32)
    cut = X[5].copy()
    cut[:8] += 1
    Q = np.vstack([X[[0, 17]], rng.integers(-2, 3, (2, 32)), cut]).astype(np.float32)
    return X, np.arange(len(X))[::-1], Q


# name -> (input, k values in process)
CASES = {
    "int_ties": (_int_ties, (1, 3, 7)),
    "float_dups": (_float_dups, (1, 3, 7)),
    "offset_near_dups": (_offset_near_dups, (1, 3, 7)),
    "zeros": (_zeros, (1, 7, 40)),
    "tiny": (_tiny, (1, 5)),
    "seam_ties": (_seam_ties, (1, 7, 80)),
}
# name -> (k, partitions) on the Spark paths
SPARK_CASES = {"int_ties": (7, 4), "float_dups": (3, 4), "zeros": (40, 4), "tiny": (5, 8)}


def _expected(X, ids, Q, k):
    return [brute_knn(X, q, k, ids) for q in Q]


def _assert_same(got, exp, what):
    """Same ids in the same order; distances equal up to summation order."""
    assert [i for _, i in got] == [i for _, i in exp], what
    np.testing.assert_allclose([d for d, _ in got], [d for d, _ in exp],
                               rtol=1e-12, atol=1e-12, err_msg=what)


def _in_process(engine, X, ids, summary):
    if engine == "sofa":
        idx = build_sofa(X, ids=ids, summary=summary, leaf_size=4)
        return lambda q, k: idx.knn(q, k=k)
    if engine == "messi":
        idx = build_messi(X, ids=ids, l=8, alphabet=16, leaf_size=4)
        return lambda q, k: idx.knn(q, k=k)
    scan = ucr_knn if engine == "ucr" else flat_knn
    return lambda q, k: scan(X, q[None, :], k=k, ids=ids)[0]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("engine", METHODS)
def test_in_process_engines_match_brute_force(engine, case):
    make, ks = CASES[case]
    X, ids, Q = make()
    knn = _in_process(engine, X, ids, SFASummary.fit(X, l=8, alphabet=16))
    for k in ks:
        for qi, (q, exp) in enumerate(zip(Q, _expected(X, ids, Q, k))):
            _assert_same(knn(q, k), exp, f"{engine} {case} k={k} query {qi}")


# ------------------------------------------------------------ Spark paths
def _duckdb_knn(X, ids, Q, k):
    """The DuckDB oracle's top-k of every query, as ``brute_knn`` lists."""
    con = duckdb.connect()
    try:
        con.register("data_long", long_table(X, "series_id", ids))
        con.register("queries_long", long_table(Q, "query_id"))
        out = con.execute(KNN_SQL.format(k=k)).fetchdf().sort_values(["query_id", "rank"])
    finally:
        con.close()
    return [list(zip(g.dist, g.series_id)) for _, g in out.groupby("query_id")]


@pytest.fixture(scope="module", params=list(SPARK_CASES))
def spark_case(request, spark):
    """One cached ``(id, series, word)`` frame per input, shared by both
    paths, with the SFA summary its words were made with and both judges'
    answers."""
    k, parts = SPARK_CASES[request.param]
    X, ids, Q = CASES[request.param][0]()
    summary = SFASummary.fit(X, l=8, alphabet=16)
    frame = with_words(series_df(spark, X, ids, num_partitions=parts), summary).cache()
    sizes = [r[1] for r in frame.groupBy(F.spark_partition_id()).count().collect()]
    if request.param == "tiny":
        assert len(sizes) < parts and 1 in sizes  # empty and single-row partitions
    judges = {"brute force": _expected(X, ids, Q, k), "duckdb": _duckdb_knn(X, ids, Q, k)}
    yield request.param, Q, k, summary, frame, judges
    frame.unpersist()


def _judge(got, judges, what):
    for name, exp in judges.items():
        _assert_same(list(zip(got.dist, got.series_id)), exp, f"{what} vs {name}")
        assert got["rank"].tolist() == list(range(1, len(exp) + 1)), what


@pytest.mark.parametrize("method", METHODS)
def test_exact_knn_matches_brute_force_and_oracle(spark_case, method):
    case, Q, k, summary, frame, judges = spark_case
    res = exact_knn(frame, Q, k=k, method=method, summary=summary,
                    leaf_size=4).toPandas().sort_values(["query_id", "rank"])
    for qi in range(len(Q)):
        _judge(res[res.query_id == qi], {n: exp[qi] for n, exp in judges.items()},
               f"{method} {case} query {qi}")


def test_gemini_sql_matches_brute_force_and_oracle(spark_case):
    case, Q, k, summary, frame, judges = spark_case
    for qi in (0, len(Q) - 1):
        res = gemini_knn_sql(frame, summary, Q[qi], k=k).toPandas()
        _judge(res, {n: exp[qi] for n, exp in judges.items()}, f"gemini {case} query {qi}")
