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
``local_scale_curve`` repeats the 1-NN timing at growing N, the axis on
which the paper's 100M-series ordering of the engines is decided.
"""
import time

import numpy as np
import pandas as pd

from repro.baselines.flat_l2 import flat_knn
from repro.baselines.ucr_scan import ucr_knn
from repro.datasets.registry import REGISTRY, make_dataset, make_queries
from repro.index.messi import build_messi
from repro.index.sofa import build_sofa
from repro.index.tree import SearchStats

#: timed warm calls per (dataset, method, k); ``ms`` is their median
REPEATS = 5


def _pruning(tree, q: np.ndarray, k: int) -> float:
    st = SearchStats()
    tree.knn(q, k=k, stats=st)
    return st.pruning_ratio


def local_engine_times(datasets, ks=(1,), *, n_queries: int = 20,
                       scale: float = 1.0, seed: int = 7) -> pd.DataFrame:
    """Long frame (dataset, method, k, ms, pruning), timed in-process.

    ``ms`` is per query, the median of ``REPEATS`` warm calls over the
    whole query batch. The timed calls of a (dataset, k) run round-robin
    over its methods, so a slow phase of the host is shared by every
    method rather than landing on one. Each dataset's trees are built
    once and reused for every k (the paper's protocol); the UCR scan runs
    only at k=1, as in the paper. ``pruning`` is the trees' mean pruning
    ratio over the batch, from an untimed pass, and null for the two scans.
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
            for fn in runs.values():
                fn()  # warm
            times = {method: [] for method in runs}
            for _ in range(REPEATS):
                for method, fn in runs.items():
                    t0 = time.perf_counter()
                    fn()
                    times[method].append(time.perf_counter() - t0)
            for method in runs:
                ms = float(np.median(times[method])) / n_queries * 1000
                pruning = None
                if method in trees:
                    pruning = round(float(np.mean(
                        [_pruning(trees[method], q, k) for q in Q])), 3)
                rows.append({"dataset": name, "method": method, "k": k,
                             "ms": round(ms, 2), "pruning": pruning})
    return pd.DataFrame(rows)


def local_scale_curve(datasets=("LenDB", "Astro", "SIFT1b", "SCEDC"),
                      n_series=(48_000, 240_000, 480_000)) -> pd.DataFrame:
    """Long frame (dataset, n_series, method, k, ms, pruning): the 1-NN
    ``local_engine_times`` of each dataset at each collection size.

    The paper's SOFA-vs-FAISS order is measured at 100M series, where
    the flat scan's cost, linear in N, dominates; the curve shows where
    each engine's per-query cost stands as N grows on this host.
    """
    frames = [local_engine_times([name], scale=n / REGISTRY[name].repro_n)
              .assign(n_series=n)
              for name in datasets for n in n_series]
    return pd.concat(frames, ignore_index=True)[
        ["dataset", "n_series", "method", "k", "ms", "pruning"]]
