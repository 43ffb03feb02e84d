"""Small-scale end-to-end runs of the table drivers (structure + sanity).

Full-size numbers are produced by ``jobs/``; here the drivers run on
reduced datasets to verify they produce well-formed, internally
consistent tables.
"""
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import make_dataset, make_queries
from repro.distrib import fit_sfa_spark, series_df
from repro.experiments import local_bench, tables
from repro.experiments.local_bench import local_engine_times, local_scale_curve
from repro.experiments.runner import METHOD_KEYS, timed_search
from repro.experiments.tables import (table1, table2, table3, table4, table5,
                                      table6)
from repro.experiments.tlb import TLB_METHODS, fit_variants, tlb_spark
from repro.index import SearchStats, TreeIndex, build_sofa
from tests.helpers import znormed

SMALL = dict(scale=0.05, n_queries=4)
DS2 = ("LenDB", "Astro")


def test_table1_structure():
    t = table1()
    assert len(t) == 17
    # the paper's headline total: 1,017,586,504 data series (Table I)
    assert t.paper_n_series.sum() == 1_017_586_504
    assert set(t.freq_profile) == {"low", "high", "flat"}


def _search_inputs(spark, dataset, n_queries, seed=7):
    """A cached 2-partition series frame, its queries and SOFA summary."""
    X = make_dataset(dataset, scale=0.05, seed=seed)
    df = series_df(spark, X, num_partitions=2).cache()
    return (df, make_queries(dataset, n_queries, scale=0.05, seed=seed),
            fit_sfa_spark(df, seed=seed))


def test_timed_search_returns_latency(spark):
    df, queries, summary = _search_inputs(spark, "Iquique", 3)
    try:
        out = timed_search(df, queries, "SOFA", summary=summary)
    finally:
        df.unpersist()
    assert out["ms_per_query"] > 0
    assert len(out["result"]) == 3  # one 1-NN row per query


def _persisted(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


# Spark keeps one cached copy per plan, so each case below draws its own
# data: a frame of the same plan cached elsewhere would hide a leak. Both
# drivers read ``tables.ALL_METHODS`` when called (table3 takes no methods).
DRIVERS = {
    "table2": lambda spark, seed: table2(
        spark, datasets=("Iquique",), methods=tables.ALL_METHODS,
        cores_list=(9, 18), scale=0.05, n_queries=3, seed=seed),
    "table3": lambda spark, seed: table3(
        spark, datasets=("Iquique",), ks=(1, 3), scale=0.05, n_queries=3,
        seed=seed),
}


@pytest.mark.parametrize("driver, seed", [("table2", 21), ("table3", 22)])
def test_table_drivers_unpersist_their_frames(spark, monkeypatch, driver,
                                              seed):
    monkeypatch.setattr(tables, "ALL_METHODS", ("SOFA",))
    before = _persisted(spark)
    DRIVERS[driver](spark, seed)
    assert _persisted(spark) == before


@pytest.mark.parametrize("driver, seed", [("table2", 23), ("table3", 24)])
def test_table_drivers_unpersist_when_they_raise(spark, monkeypatch, driver,
                                                 seed):
    monkeypatch.setattr(tables, "ALL_METHODS", ("SOFA", "no such method"))
    before = _persisted(spark)
    with pytest.raises(KeyError):
        DRIVERS[driver](spark, seed)
    assert _persisted(spark) == before


def _record_calls(monkeypatch, name, arg):
    """Wrap ``tables.<name>`` so that each call appends its keyword ``arg``
    to the returned list."""
    calls, fn = [], getattr(tables, name)

    def recording(*args, **kwargs):
        calls.append(kwargs.get(arg))
        return fn(*args, **kwargs)

    monkeypatch.setattr(tables, name, recording)
    return calls


def test_table3_uploads_each_frame_once_for_all_k(spark, monkeypatch):
    calls = _record_calls(monkeypatch, "series_df", "num_partitions")
    monkeypatch.setattr(tables, "ALL_METHODS", ("SOFA",))
    t = table3(spark, datasets=("Iquique", "ETHZ"), ks=(1, 3), scale=0.05,
               n_queries=3, seed=25)
    assert calls == [16, 16]  # one per (dataset, cores), not per k
    assert list(t.columns) == ["method", 1, 3]


def test_table4_uploads_each_frame_once_for_all_rates(spark, monkeypatch):
    uploads = _record_calls(monkeypatch, "series_df", "num_partitions")
    fits = _record_calls(monkeypatch, "fit_sfa_spark", "fraction")
    tokens = _record_calls(monkeypatch, "timed_search", "cache_token")
    rates = (0.01, 0.05, 0.2)
    t = table4(spark, datasets=("Iquique",), rates=rates, scale=0.05,
               n_queries=3, seed=26)
    assert uploads == [16]  # one per (dataset, cores), not per rate
    assert fits == list(rates)  # a summary per rate
    assert len(set(tokens)) == len(tokens) == 3
    assert t.sampling.tolist() == list(rates)


def test_local_engine_times_rows_and_pruning():
    t = local_engine_times(("Iquique", "LenDB"), ks=(1, 3), n_queries=4,
                           scale=0.1)
    keys = list(zip(t.dataset, t.method, t.k))
    assert len(keys) == len(set(keys)) == 2 * (4 + 3)
    assert set(t[t.method == "UCR suite"].k) == {1}  # as in the paper
    assert (t.ms > 0).all()
    trees = t[t.method.isin(["MESSI", "SOFA"])]
    assert trees.pruning.between(0, 1).all()
    assert t[t.method.isin(["UCR suite", "FAISS"])].pruning.isna().all()
    # pruning is the mean over the whole batch, not the first query's
    X = make_dataset("LenDB", scale=0.1).astype(np.float32)
    Q = make_queries("LenDB", 4, scale=0.1).astype(np.float32)
    tree = build_sofa(X, seed=7)
    ratios = []
    for q in Q:
        st = SearchStats()
        tree.knn(q, k=3, stats=st)
        ratios.append(st.pruning_ratio)
    got = t[(t.dataset == "LenDB") & (t.method == "SOFA") & (t.k == 3)]
    assert got.pruning.item() == round(float(np.mean(ratios)), 3)


def test_local_engine_times_interleaves_the_methods(monkeypatch):
    """Between two calls of one method (warm or timed), every other method
    of the (dataset, k) is called once."""
    calls = []

    def logged(label, fn):
        def call(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)
        return call

    knn = TreeIndex.knn

    def logged_knn(self, q, k=1, stats=None):
        if stats is None:  # a timed batch, not the pruning pass
            calls.append(type(self.summary).__name__)  # MESSI: SAX, SOFA: SFA
        return knn(self, q, k=k, stats=stats)

    monkeypatch.setattr(local_bench, "ucr_knn", logged("ucr", local_bench.ucr_knn))
    monkeypatch.setattr(local_bench, "flat_knn", logged("flat", local_bench.flat_knn))
    monkeypatch.setattr(TreeIndex, "knn", logged_knn)
    local_engine_times(("Iquique",), n_queries=1, scale=0.05)  # one knn per batch
    labels = {"ucr", "flat", "SAXSummary", "SFASummary"}
    assert len(calls) == 4 * (1 + local_bench.REPEATS)
    for m in labels:
        at = [i for i, c in enumerate(calls) if c == m]
        for a, b in zip(at, at[1:]):
            assert sorted(calls[a + 1:b]) == sorted(labels - {m})


JOBS = Path(__file__).resolve().parent.parent / "jobs"


@pytest.mark.parametrize("path", sorted(JOBS.glob("table*.py")),
                         ids=lambda p: p.stem)
def test_job_imports(path):
    """Each job's imports resolve; its ``__main__`` block does not run."""
    saved_path, saved_env = sys.path[:], dict(os.environ)
    sys.path.insert(0, str(JOBS))
    try:
        spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    finally:
        sys.path[:] = saved_path
        for key in set(os.environ) - set(saved_env):
            del os.environ[key]
        os.environ.update(saved_env)
        sys.modules.pop("_common", None)


def test_table2_structure_and_consistency(spark):
    summary, detail = table2(spark, datasets=DS2, cores_list=(9, 36),
                             methods=("MESSI", "SOFA"), **SMALL)
    assert set(summary.method) == {"MESSI", "SOFA"}
    assert set(summary.cores) == {9, 36}
    assert (summary["mean"] > 0).all()
    assert len(detail) == 2 * 2 * 2


def test_table2_all_methods_agree_on_results(spark):
    """Every method is exact, so all four return the same neighbors."""
    df, queries, summary = _search_inputs(spark, "ETHZ", 4)
    results = {}
    try:
        for m in METHOD_KEYS:
            r = timed_search(df, queries, m,
                             summary=summary if m == "SOFA" else None)["result"]
            results[m] = r.sort_values("query_id").series_id.tolist()
    finally:
        df.unpersist()
    vals = list(results.values())
    assert all(v == vals[0] for v in vals)


def test_table3_structure(spark):
    t = table3(spark, datasets=("Iquique",), ks=(1, 3), **SMALL)
    assert 1 in t.columns and 3 in t.columns
    ucr = t[t.method == "UCR suite"]
    assert not np.isnan(ucr[1]).any()
    assert np.isnan(ucr[3]).all()  # UCR only measured at k=1, as in paper


def test_table4_structure(spark):
    t = table4(spark, datasets=("Iquique",), rates=(0.01, 0.2), **SMALL)
    assert t.sampling.tolist() == [0.01, 0.2]
    assert (t.mean_ms > 0).all()


def test_tlb_spark_bounds_and_methods(spark):
    train = znormed(60, 64, seed=1)
    queries = znormed(5, 64, seed=2)
    res = tlb_spark(spark, train, queries, fit_variants(train, (4, 64)),
                    partitions=2)
    assert len(res) == 6
    for label, v in res.items():
        assert 0.0 <= v <= 1.0, label


def test_tlb_increases_with_alphabet(spark):
    train = znormed(100, 64, seed=3)
    queries = znormed(5, 64, seed=4)
    res = tlb_spark(spark, train, queries, fit_variants(train, (4, 256)),
                    partitions=2)
    for m in TLB_METHODS:
        assert res[f"{m}|256"] >= res[f"{m}|4"] - 1e-6


def test_table5_sfa_beats_isax(spark):
    t = table5(spark, alphabets=(16,), n_train=40, n_test=8, partitions=2)
    vals = t.set_index("method")[16]
    assert vals["SFA EW +VAR"] > vals["iSAX"]


def test_table6_structure(spark):
    t = table6(spark, datasets=("LenDB", "SALD"), alphabets=(8,),
               scale=0.05, n_queries=4, partitions=2)
    assert set(t.method) == set(TLB_METHODS)
    assert ((t[8] >= 0) & (t[8] <= 1)).all()


def test_local_scale_curve_rows_and_pruning():
    t = local_scale_curve(("Iquique", "LenDB"), n_series=(300, 600))
    keys = list(zip(t.dataset, t.n_series, t.method))
    assert len(keys) == len(set(keys)) == 2 * 2 * 4
    assert sorted(set(t.n_series)) == [300, 600]
    assert (t.k == 1).all() and (t.ms > 0).all()
    assert t[t.method.isin(["MESSI", "SOFA"])].pruning.between(0, 1).all()
    assert t[t.method.isin(["UCR suite", "FAISS"])].pruning.isna().all()
