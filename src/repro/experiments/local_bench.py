"""Driver-local engine timings — the overhead-free companion to Table II.

The Spark path pays a fixed per-action cost (task scheduling + Arrow
shipping of each partition's series) that is identical for all four
methods and, at laptop scale, comparable to the engine work itself.
This module times the bare per-partition engines on the whole dataset
in-process, which is the number to compare against the paper's
per-query milliseconds: the *engines* are what the paper benchmarks;
Spark is our substitute for their pthread scale-out.

Also reports the hardware-independent work counters (pruning ratio) so
the paper's "why" survives even where Python/C constants differ.
"""
import time

import numpy as np
import pandas as pd

from repro.baselines.flat_l2 import flat_knn
from repro.baselines.ucr_scan import ucr_knn
from repro.datasets.registry import make_dataset, make_queries
from repro.index.messi import build_messi
from repro.index.sofa import build_sofa
from repro.index.tree import SearchStats


def local_knn_sweep(datasets, ks=(1, 3, 5, 10, 20, 50), *, n_queries=20,
                    scale: float = 1.0, seed: int = 7) -> pd.DataFrame:
    """Engine-level Table III: median per-query ms per (method, k).

    Indexes are built once per dataset and reused across k (the paper's
    protocol); the UCR scan is only run at k=1, as in the paper.
    """
    rows = []
    for name in datasets:
        X = make_dataset(name, scale=scale, seed=seed).astype(np.float32)
        Q = make_queries(name, n_queries, scale=scale, seed=seed).astype(np.float32)
        engines = {"MESSI": build_messi(X), "SOFA": build_sofa(X, seed=seed)}
        for k in ks:
            runs = {"FAISS": lambda: flat_knn(X, Q, k=k),
                    "MESSI": lambda: [engines["MESSI"].knn(q, k=k) for q in Q],
                    "SOFA": lambda: [engines["SOFA"].knn(q, k=k) for q in Q]}
            if k == 1:
                runs["UCR suite"] = lambda: ucr_knn(X, Q, k=1)
            for method, fn in runs.items():
                fn()
                t0 = time.perf_counter()
                fn()
                rows.append({"dataset": name, "method": method, "k": k,
                             "ms": (time.perf_counter() - t0) / n_queries * 1000})
    detail = pd.DataFrame(rows)
    return (detail.groupby(["method", "k"])["ms"].median().round(2)
            .unstack("k").reset_index())


def local_engine_times(datasets, methods=("UCR suite", "FAISS", "MESSI", "SOFA"),
                       *, k: int = 1, n_queries: int = 20, scale: float = 1.0,
                       seed: int = 7) -> pd.DataFrame:
    """Per-query ms and pruning ratio per (dataset, method), in-process."""
    rows = []
    for name in datasets:
        X = make_dataset(name, scale=scale, seed=seed).astype(np.float32)
        Q = make_queries(name, n_queries, scale=scale, seed=seed).astype(np.float32)
        engines = {}
        if "MESSI" in methods:
            engines["MESSI"] = build_messi(X)
        if "SOFA" in methods:
            engines["SOFA"] = build_sofa(X, seed=seed)
        for method in methods:
            if method in engines:
                idx = engines[method]
                fn = lambda: [idx.knn(q, k=k) for q in Q]  # noqa: E731
            elif method == "UCR suite":
                fn = lambda: ucr_knn(X, Q, k=k)  # noqa: E731
            else:  # FAISS
                fn = lambda: flat_knn(X, Q, k=k)  # noqa: E731
            fn()  # warm
            t0 = time.perf_counter()
            fn()
            ms = (time.perf_counter() - t0) / n_queries * 1000
            prune = np.nan
            if method in engines:
                st = SearchStats()
                engines[method].knn(Q[0], k=k, stats=st)
                prune = st.pruning_ratio
            rows.append({"dataset": name, "method": method,
                         "ms": round(ms, 2), "pruning": round(prune, 3)
                         if prune == prune else None})
    return pd.DataFrame(rows)
