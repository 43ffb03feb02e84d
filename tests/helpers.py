"""Shared test utilities: data factories, a brute-force oracle and the
scalar Eq. 2 reference the batched LBD kernels are checked against."""
import numpy as np

from repro.core.distance import ed2_batch
from repro.core.znorm import znormalize


def znormed(n_series: int, length: int, seed: int = 0) -> np.ndarray:
    """Random z-normalized float32 series batch."""
    g = np.random.default_rng(seed)
    return znormalize(g.standard_normal((n_series, length)).astype(np.float32))


def brute_knn(X: np.ndarray, q: np.ndarray, k: int) -> list[tuple[float, int]]:
    """Ground-truth k-NN: (distance, id) ascending, ties broken by id."""
    d2 = ed2_batch(q[None, :], X)[0]
    order = np.lexsort((np.arange(len(X)), d2))[:k]
    return [(float(np.sqrt(d2[i])), int(i)) for i in order]


def mindist2_ref(qvals, word, edges, weights) -> float:
    """Scalar reference of Eq. 2 with explicit branches — the ground truth
    the batched kernels are tested against."""
    total = 0.0
    for j in range(len(word)):
        lo = edges[j, word[j]]
        hi = edges[j, word[j] + 1]
        v = qvals[j]
        if v < lo:
            d = lo - v
        elif v > hi:
            d = v - hi
        else:
            d = 0.0
        total += weights[j] * d * d
    return float(total)
