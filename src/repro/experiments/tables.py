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
from repro.experiments.runner import (CORES_TO_PARTITIONS, METHOD_KEYS,
                                      SearchConfig, timed_search)
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


def _per_dataset_times(spark, datasets, methods, cores_list, *, k=1,
                       n_queries=20, scale=1.0, sampling=0.01,
                       seed=7) -> pd.DataFrame:
    """Long frame (dataset, method, cores, ms) for tables II/III/IV."""
    rows = []
    df_cache: dict = {}
    for name in datasets:
        for cores in cores_list:
            parts = CORES_TO_PARTITIONS[cores]
            for method in methods:
                cfg = SearchConfig(dataset=name, method=method,
                                   partitions=parts, k=k, n_queries=n_queries,
                                   scale=scale, sampling=sampling, seed=seed)
                out = timed_search(spark, cfg, df_cache)
                rows.append({"dataset": name, "method": method, "cores": cores,
                             "ms": out["ms_per_query"]})
    for df in df_cache.values():
        df.unpersist()
    return pd.DataFrame(rows)


def table2(spark: SparkSession, datasets=ALL_DATASETS, methods=ALL_METHODS,
           cores_list=PAPER_CORES, *, n_queries=20, scale=1.0,
           seed=7) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Table II: 1-NN mean/median query time (ms) per method x cores.

    Returns (summary, per_dataset) — the per-dataset frame also yields
    the Figure-12-style SOFA/MESSI speedups.
    """
    detail = _per_dataset_times(spark, datasets, methods, cores_list,
                                k=1, n_queries=n_queries, scale=scale,
                                seed=seed)
    summary = (detail.groupby(["method", "cores"])["ms"]
               .agg(median="median", mean="mean").round(2).reset_index())
    return summary, detail


def table3(spark: SparkSession, datasets=ALL_DATASETS,
           ks=(1, 3, 5, 10, 20, 50), cores=36, *, n_queries=20, scale=1.0,
           seed=7) -> pd.DataFrame:
    """Table III: median k-NN query times (ms), 36 cores -> 16 partitions.

    As in the paper, the UCR suite is only run for k=1.
    """
    frames = []
    for k in ks:
        methods = ALL_METHODS if k == 1 else tuple(m for m in ALL_METHODS
                                                   if m != "UCR suite")
        d = _per_dataset_times(spark, datasets, methods, [cores], k=k,
                               n_queries=n_queries, scale=scale, seed=seed)
        d["k"] = k
        frames.append(d)
    detail = pd.concat(frames, ignore_index=True)
    return (detail.groupby(["method", "k"])["ms"].median().round(2)
            .unstack("k").reset_index())


def table4(spark: SparkSession, datasets=ALL_DATASETS,
           rates=(0.001, 0.005, 0.01, 0.05, 0.10, 0.15, 0.20), cores=36, *,
           n_queries=20, scale=1.0, seed=7) -> pd.DataFrame:
    """Table IV: SOFA query times vs MCB sampling rate."""
    rows = []
    for rate in rates:
        d = _per_dataset_times(spark, datasets, ["SOFA"], [cores], k=1,
                               n_queries=n_queries, scale=scale,
                               sampling=rate, seed=seed)
        rows.append({"sampling": rate, "mean_ms": round(d["ms"].mean(), 2),
                     "median_ms": round(d["ms"].median(), 2)})
    return pd.DataFrame(rows)


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


def table2_scaled(spark: SparkSession,
                  datasets=("LenDB", "Astro", "SIFT1b"),
                  methods=ALL_METHODS, *, target_n=160_000, n_queries=20,
                  seed=7) -> pd.DataFrame:
    """Table II at paper-like per-partition scale (N~=160k, 16 partitions).

    At the 17-dataset tier sizes (3k-20k) every partition holds so few
    series that the fixed Spark action cost dominates all methods
    equally; this scaled run restores the regime where engine cost is
    visible through the distributed path (see EXPERIMENTS.md).
    """
    rows = []
    df_cache: dict = {}
    for name in datasets:
        scale = target_n / REGISTRY[name].repro_n
        for method in methods:
            cfg = SearchConfig(dataset=name, method=method, partitions=16,
                               n_queries=n_queries, scale=scale, seed=seed)
            out = timed_search(spark, cfg, df_cache, mode="marginal")
            rows.append({"dataset": name, "method": method,
                         "ms": round(out["ms_per_query"], 2)})
    for df in df_cache.values():
        df.unpersist()
    return pd.DataFrame(rows).pivot(index="dataset", columns="method",
                                    values="ms").reset_index()


def faiss_crossover(spark: SparkSession, dataset="SCEDC",
                    n_series=(20_000, 80_000, 320_000), *, n_queries=20,
                    seed=7) -> pd.DataFrame:
    """Scale experiment (EXPERIMENTS.md § Table II): FAISS's flat scan is
    linear in N while SOFA's query cost is ~flat, so the paper's N=100M
    ordering (SOFA 2-4x faster than FAISS) emerges with growing N.
    """
    base = REGISTRY[dataset].repro_n
    rows = []
    df_cache: dict = {}
    for n in n_series:
        for method in ("FAISS", "SOFA"):
            cfg = SearchConfig(dataset=dataset, method=method, partitions=16,
                               n_queries=n_queries, scale=n / base, seed=seed)
            out = timed_search(spark, cfg, df_cache, mode="marginal")
            rows.append({"n_series": n, "method": method,
                         "ms": round(out["ms_per_query"], 2)})
    for df in df_cache.values():
        df.unpersist()
    return pd.DataFrame(rows).pivot(index="n_series", columns="method",
                                    values="ms").reset_index()
