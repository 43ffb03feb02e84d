"""Engine-level benchmarks (Table II's per-query ordering, overhead-free).

These time the bare per-partition engines in-process — the direct
analog of what the paper measures (its pthread scale-out is our Spark
layer, benchmarked separately in bench_table2_1nn.py). Expected shape
per the paper: SOFA << MESSI on the high-frequency dataset (LenDB),
parity on the low-frequency one (Astro); the UCR scan slowest of the
per-query engines; FAISS's flat GEMM wins only at this small N (see
EXPERIMENTS.md § crossover).
"""
import numpy as np
import pytest

from repro.baselines.flat_l2 import flat_knn
from repro.baselines.ucr_scan import ucr_knn
from repro.datasets.registry import make_dataset, make_queries
from repro.index.messi import build_messi
from repro.index.sofa import build_sofa

DATA = {}
for _name in ("LenDB", "Astro"):
    _X = make_dataset(_name, scale=1.0).astype(np.float32)
    _Q = make_queries(_name, 20, scale=1.0).astype(np.float32)
    DATA[_name] = {
        "X": _X, "Q": _Q,
        "SOFA": build_sofa(_X),
        "MESSI": build_messi(_X),
    }


@pytest.mark.parametrize("dataset", ["LenDB", "Astro"])
@pytest.mark.parametrize("method", ["UCR suite", "FAISS", "MESSI", "SOFA"])
def test_engine_1nn(benchmark, dataset, method):
    d = DATA[dataset]
    X, Q = d["X"], d["Q"]
    if method in ("MESSI", "SOFA"):
        idx = d[method]
        fn = lambda: [idx.knn(q, k=1) for q in Q]  # noqa: E731
    elif method == "UCR suite":
        fn = lambda: ucr_knn(X, Q, k=1)  # noqa: E731
    else:
        fn = lambda: flat_knn(X, Q, k=1)  # noqa: E731
    benchmark.pedantic(fn, rounds=5, iterations=1, warmup_rounds=1)
