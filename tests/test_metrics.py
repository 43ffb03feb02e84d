"""TLB (tightness of lower bound, Section V-E) as ``tlb_spark`` computes it."""
import copy

import numpy as np
import pytest
from pyspark.errors import PythonException

from repro.core.distance import ed2_batch
from repro.experiments.tlb import tlb_spark
from repro.summaries.sfa import SFASummary
from repro.summaries.simd import batch_mindist2
from tests.helpers import znormed

X = znormed(40, 32, seed=1)
Q = znormed(3, 32, seed=2)
SFA = SFASummary.fit(X, l=8, alphabet=16)
#: small integers: distinct rows are at least 1 apart, equal rows exactly 0
INTS = np.random.default_rng(3).integers(-2, 3, (20, 32)).astype(np.float64)


def _scaled(s, factor):
    """``s`` with every weight, hence every squared bound, times ``factor``."""
    out = copy.copy(s)
    out.weights = s.weights * factor
    return out


def _pairs(s, X, Q):
    """Squared LBDs and squared true distances ``(Q, N)``, in process."""
    qv = s.approx(Q)
    words = s.words(X)
    lbd2 = np.stack([batch_mindist2(v, words, s.edges, s.weights) for v in qv])
    return lbd2, np.stack([ed2_batch(q, X, rows=np.arange(len(X))) for q in Q])


def _tight(s, x, q, slack=1.0):
    """``s`` rescaled so that its bound of the one pair ``(x, q)`` equals
    their true distance times ``slack``."""
    lbd2, true2 = _pairs(s, x[None, :], q[None, :])
    assert lbd2[0, 0] > 0
    return _scaled(s, true2[0, 0] / lbd2[0, 0] * slack ** 2)


def test_tlb_perfect_bound(spark):
    s = _tight(SFA, X[0], Q[0])
    res = tlb_spark(spark, X[:1], Q[:1], {"tight": s}, partitions=1)
    assert res["tight"] == pytest.approx(1.0, abs=1e-12)


def test_tlb_half_bound(spark):
    res = tlb_spark(spark, X, Q, {"full": SFA, "half": _scaled(SFA, 0.25)}, partitions=2)
    assert 0.0 < res["full"] < 1.0
    assert res["half"] == pytest.approx(res["full"] / 2, rel=1e-12)


def test_tlb_skips_zero_distance_pairs(spark):
    queries = INTS[:3]  # each query also meets itself, at distance 0
    lbd2, true2 = _pairs(SFA, INTS, queries)
    keep = true2 > 0
    assert keep.sum() == keep.size - 3
    res = tlb_spark(spark, INTS, queries, {"sfa": SFA}, partitions=2)
    assert res["sfa"] == pytest.approx((np.sqrt(lbd2[keep]) / np.sqrt(true2[keep])).mean(),
                                       rel=1e-9)


def test_tlb_all_zero_pairs(spark):
    res = tlb_spark(spark, np.repeat(INTS[:1], 3, axis=0), INTS[:1], {"sfa": SFA},
                    partitions=2)
    assert res["sfa"] == 1.0


def test_tlb_rejects_invalid_bound(spark):
    """Weights far too large make the bound exceed the true distance; the
    ratio must not be clipped into a perfect score."""
    with pytest.raises(PythonException, match=r"ValueError: .*weights x50: LBD exceeds"):
        tlb_spark(spark, X, Q, {"sfa": SFA, "weights x50": _scaled(SFA, 50.0)},
                  partitions=2)


def test_tlb_tolerates_float_noise(spark):
    s = _tight(SFA, X[0], Q[0], slack=1.0 + 1e-7)
    res = tlb_spark(spark, X[:1], Q[:1], {"noisy": s}, partitions=1)
    assert res["noisy"] == 1.0


def test_tlb_near_duplicates_score_one(spark):
    """A row and the same row plus 1e-7 noise, bounded by a 2-symbol SFA
    whose edge is the midpoint of the pair's two approx values, with the
    weights scaled so that the bound equals the pair's distance. The true
    distance must be the direct one: the GEMM identity's absolute round-off
    is up to a few % of a distance this small, so it scored such pairs
    below 1 or raised "LBD exceeds"."""
    got = {}
    for seed in range(20):
        g = np.random.default_rng(seed)
        x = g.standard_normal(128)
        q = x + 1e-7 * g.standard_normal(128)
        coeffs, imag = np.array([1]), np.array([False])
        mid = SFASummary(128, coeffs, imag, np.array([[-np.inf, 0.0, np.inf]]),
                         alphabet=2).approx(np.stack([x, q]))[:, 0].mean()
        s = SFASummary(128, coeffs, imag, np.array([[-np.inf, mid, np.inf]]), alphabet=2)
        try:
            got[seed] = tlb_spark(spark, x[None, :], q[None, :], {"tight": _tight(s, x, q)},
                                  partitions=1)["tight"]
        except PythonException as e:
            got[seed] = str(e).strip().splitlines()[-1]
    assert {seed: r for seed, r in got.items()
            if not (isinstance(r, float) and abs(r - 1.0) <= 1e-9)} == {}
