"""Drivers that regenerate each evaluation table of the paper.

Every function returns a pandas DataFrame shaped like the paper's table
(see EXPERIMENTS.md for the paper-vs-measured comparison). Defaults are
the full-size runs used by ``jobs/``; tests pass smaller ``datasets``/
``scale``/``n_queries``.
"""
import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.registry import REGISTRY, make_dataset, make_queries, ucr_like
from repro.distrib.dataset import series_df
from repro.distrib.mcb import fit_sfa_spark
from repro.experiments.runner import (CORES_TO_PARTITIONS, METHOD_KEYS,
                                      timed_search)
from repro.experiments.tlb import fit_variants, tlb_spark

ALL_DATASETS = tuple(REGISTRY)
ALL_METHODS = tuple(METHOD_KEYS)  # ("UCR suite", "FAISS", "MESSI", "SOFA")
PAPER_CORES = (9, 18, 36)
ALPHABETS = (4, 8, 16, 32, 64, 128, 256)


def table1() -> pd.DataFrame:
    """Table I: dataset characteristics (paper sizes vs repro-tier sizes)."""
    rows = [{
        "dataset": s.name, "paper_n_series": s.paper_n,
        "repro_n_series": s.repro_n, "series_length": s.length,
        "domain": s.domain, "freq_profile": s.freq_profile,
        "generator": s.generator,
    } for s in REGISTRY.values()]
    return pd.DataFrame(rows)


def _per_dataset_times(spark, datasets, methods, cores_list, *, ks=(1,),
                       rates=(0.01,), n_queries=20, scale=1.0,
                       seed=7) -> pd.DataFrame:
    """Long frame (dataset, method, cores, sampling, k, ms), tables II-IV.

    Each (dataset, cores) series frame is uploaded and cached once for
    every MCB sampling rate (an SFA summary is fitted per rate), method
    and k, and unpersisted before this returns or raises. As in the paper,
    the UCR suite runs only at k=1.
    """
    rows = []
    for name in datasets:
        X = make_dataset(name, scale=scale, seed=seed)
        queries = make_queries(name, n_queries, scale=scale, seed=seed)
        for cores in cores_list:
            parts = CORES_TO_PARTITIONS[cores]
            df = series_df(spark, X, num_partitions=parts).cache()
            try:
                df.count()
                for rate in rates:
                    summary = (fit_sfa_spark(df, fraction=rate, seed=seed)
                               if "SOFA" in methods else None)
                    for k in ks:
                        for method in methods:
                            if method == "UCR suite" and k != 1:
                                continue
                            out = timed_search(
                                df, queries, method, k=k,
                                summary=summary if method == "SOFA" else None,
                                cache_token=f"{name}:{scale}:{parts}:{seed}:"
                                            f"{method}:{rate}")
                            rows.append({"dataset": name, "method": method,
                                         "cores": cores, "sampling": rate,
                                         "k": k, "ms": out["ms_per_query"]})
            finally:
                df.unpersist()
    return pd.DataFrame(rows)


def table2(spark: SparkSession, datasets=ALL_DATASETS, methods=ALL_METHODS,
           cores_list=PAPER_CORES, *, n_queries=20, scale=1.0,
           seed=7) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Table II: 1-NN mean/median query time (ms) per method x cores.

    Returns (summary, per_dataset). The Figure-12-style SOFA/MESSI
    speedups come from the engine-level ``local_engine_times`` instead:
    through Spark the fixed action cost hides the engines' difference.
    """
    detail = _per_dataset_times(spark, datasets, methods, cores_list,
                                n_queries=n_queries, scale=scale,
                                seed=seed).drop(columns=["sampling", "k"])
    summary = (detail.groupby(["method", "cores"])["ms"]
               .agg(median="median", mean="mean").round(2).reset_index())
    return summary, detail


def table3(spark: SparkSession, datasets=ALL_DATASETS,
           ks=(1, 3, 5, 10, 20, 50), cores=36, *, n_queries=20, scale=1.0,
           seed=7) -> pd.DataFrame:
    """Table III: median k-NN query times (ms), 36 cores -> 16 partitions.

    As in the paper, the UCR suite is only run for k=1.
    """
    detail = _per_dataset_times(spark, datasets, ALL_METHODS, [cores], ks=ks,
                                n_queries=n_queries, scale=scale, seed=seed)
    return (detail.groupby(["method", "k"])["ms"].median().round(2)
            .unstack("k").reset_index())


def table4(spark: SparkSession, datasets=ALL_DATASETS,
           rates=(0.001, 0.005, 0.01, 0.05, 0.10, 0.15, 0.20), cores=36, *,
           n_queries=20, scale=1.0, seed=7) -> pd.DataFrame:
    """Table IV: SOFA query times vs MCB sampling rate."""
    detail = _per_dataset_times(spark, datasets, ["SOFA"], [cores], rates=rates,
                                n_queries=n_queries, scale=scale, seed=seed)
    return (detail.groupby("sampling", sort=False)["ms"]
            .agg(mean_ms="mean", median_ms="median").round(2).reset_index())


def _tlb_table(spark, named_sets, alphabets, l, partitions,
               max_eval_series) -> pd.DataFrame:
    """Shared core of tables V/VI: mean TLB per (method, alphabet)."""
    per_ds = []
    for name, train, queries in named_sets:
        ev = train[:max_eval_series]
        res = tlb_spark(spark, ev, queries,
                        fit_variants(train, alphabets, l=l),
                        partitions=partitions)
        for label, v in res.items():
            method, a = label.rsplit("|", 1)
            per_ds.append({"dataset": name, "method": method,
                           "alphabet": int(a), "tlb": v})
    detail = pd.DataFrame(per_ds)
    return (detail.groupby(["method", "alphabet"])["tlb"].mean().round(3)
            .unstack("alphabet").reset_index())


def table5(spark: SparkSession, alphabets=ALPHABETS, *, l=16, n_train=200,
           n_test=50, partitions=8, seed=11) -> pd.DataFrame:
    """Table V: mean TLB on the UCR-like suite per alphabet size."""
    sets = [(name, train, test)
            for name, train, test in ucr_like(n_train=n_train, n_test=n_test,
                                              seed=seed)]
    return _tlb_table(spark, sets, alphabets, l, partitions,
                      max_eval_series=n_train)


def table6(spark: SparkSession, datasets=ALL_DATASETS, alphabets=ALPHABETS, *,
           l=16, scale=1.0, n_queries=20, max_eval_series=1500,
           partitions=8, seed=7) -> pd.DataFrame:
    """Table VI: mean TLB on the 17 SOFA dataset analogs.

    The indexing set learns the summaries (paper V-E2); TLB pairs use a
    ``max_eval_series`` subsample of it against the held-out queries.
    """
    sets = []
    for name in datasets:
        x = make_dataset(name, scale=scale, seed=seed)
        q = make_queries(name, n_queries, scale=scale, seed=seed)
        sets.append((name, x, q))
    return _tlb_table(spark, sets, alphabets, l, partitions, max_eval_series)
