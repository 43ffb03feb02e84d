"""Driver-local engine timings — the overhead-free companion to Tables II
and III.

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


def local_engine_times(datasets, ks=(1,), *, n_queries: int = 20,
                       scale: float = 1.0, seed: int = 7) -> pd.DataFrame:
    """Long frame (dataset, method, k, ms, pruning), timed in-process.

    ``ms`` is per query, from one warm call over the whole query batch.
    Each dataset's trees are built once and reused for every k (the
    paper's protocol); the UCR scan runs only at k=1, as in the paper.
    ``pruning`` is the first query's pruning ratio for the two trees and
    null for the two scans.
    """
    rows = []
    for name in datasets:
        X = make_dataset(name, scale=scale, seed=seed).astype(np.float32)
        Q = make_queries(name, n_queries, scale=scale, seed=seed).astype(np.float32)
        trees = {"MESSI": build_messi(X), "SOFA": build_sofa(X, seed=seed)}
        for k in ks:
            runs = {"UCR suite": lambda: ucr_knn(X, Q, k=k),
                    "FAISS": lambda: flat_knn(X, Q, k=k),
                    "MESSI": lambda: [trees["MESSI"].knn(q, k=k) for q in Q],
                    "SOFA": lambda: [trees["SOFA"].knn(q, k=k) for q in Q]}
            if k != 1:
                del runs["UCR suite"]
            for method, fn in runs.items():
                fn()  # warm
                t0 = time.perf_counter()
                fn()
                ms = (time.perf_counter() - t0) / n_queries * 1000
                pruning = None
                if method in trees:
                    st = SearchStats()
                    trees[method].knn(Q[0], k=k, stats=st)
                    pruning = round(st.pruning_ratio, 3)
                rows.append({"dataset": name, "method": method, "k": k,
                             "ms": round(ms, 2), "pruning": pruning})
    return pd.DataFrame(rows)
