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

from repro.experiments.local_bench import local_engine_times
from repro.experiments.runner import SearchConfig, timed_search
from repro.experiments.tables import (faiss_crossover, table1, table2, table3,
                                      table4, table5, table6)
from repro.experiments.tlb import TLB_METHODS, fit_variants, tlb_spark
from tests.helpers import znormed

SMALL = dict(scale=0.05, n_queries=4)
DS2 = ("LenDB", "Astro")


def test_table1_structure():
    t = table1()
    assert len(t) == 17
    # the paper's headline total: 1,017,586,504 data series (Table I)
    assert t.paper_n_series.sum() == 1_017_586_504
    assert set(t.freq_profile) == {"low", "high", "flat"}


def test_timed_search_returns_latency(spark):
    cfg = SearchConfig(dataset="Iquique", method="SOFA", partitions=2,
                       n_queries=3, scale=0.05)
    out = timed_search(spark, cfg)
    assert out["ms_per_query"] > 0
    assert len(out["result"]) == 3  # one 1-NN row per query


def _persisted(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


# Spark keeps one cached copy per plan, so each case below draws its own
# data: a frame of the same plan cached elsewhere would hide a leak.
@pytest.mark.parametrize("mode, seed", [("batch", 21), ("marginal", 22)])
def test_timed_search_unpersists_its_own_frame(spark, mode, seed):
    cfg = SearchConfig(dataset="Iquique", method="SOFA", partitions=2,
                       n_queries=3, scale=0.05, seed=seed)
    before = _persisted(spark)
    timed_search(spark, cfg, mode=mode)
    assert _persisted(spark) == before
    # a caller's df_cache keeps the frame for its next configuration
    df_cache = {}
    timed_search(spark, cfg, df_cache, mode=mode)
    assert _persisted(spark) == before + 1
    for df in df_cache.values():
        df.unpersist()
    assert _persisted(spark) == before


def test_timed_search_unpersists_when_it_raises(spark):
    cfg = SearchConfig(dataset="Iquique", method="no such method",
                       partitions=2, n_queries=3, scale=0.05, seed=23)
    before = _persisted(spark)
    with pytest.raises(KeyError):
        timed_search(spark, cfg)
    assert _persisted(spark) == before


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
    from repro.experiments.runner import METHOD_KEYS
    results = {}
    df_cache = {}
    for m in METHOD_KEYS:
        cfg = SearchConfig(dataset="ETHZ", method=m, partitions=2,
                           n_queries=4, scale=0.05)
        r = timed_search(spark, cfg, df_cache)["result"]
        results[m] = r.sort_values("query_id").series_id.tolist()
    for df in df_cache.values():
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


def test_faiss_crossover_shape(spark):
    t = faiss_crossover(spark, dataset="Iquique", n_series=(300, 600),
                        n_queries=3)
    assert set(t.columns) >= {"n_series", "FAISS", "SOFA"}
    # marginal timings are clipped at 0, so only non-negativity is promised
    assert (t.FAISS >= 0).all() and (t.SOFA >= 0).all()
    assert t.notna().all().all()
