"""Unit tests for the branchless/batched mindist kernels (Algorithm 3)."""
import numpy as np
import pytest

from repro.index import build_sofa
from repro.summaries.sax import SAXSummary
from repro.summaries.sfa import SFASummary
from repro.summaries.simd import (batch_interval_mindist2, batch_mindist2,
                                  mindist2_ref)
from tests.helpers import znormed


def _summary(kind, seed=0, alphabet=64, l=8, n=64):
    if kind == "sax":
        return SAXSummary(n, l=l, alphabet=alphabet)
    return SFASummary.fit(znormed(200, n, seed=seed), l=l, alphabet=alphabet)


@pytest.mark.parametrize("kind", ["sax", "sfa"])
@pytest.mark.parametrize("seed", range(5))
def test_batch_equals_scalar_reference(kind, seed):
    s = _summary(kind, seed)
    X = znormed(40, 64, seed=seed + 1)
    q = znormed(1, 64, seed=seed + 2)[0]
    qv = s.approx(q[None, :])[0]
    W = s.words(X)
    got = batch_mindist2(qv, W, s.edges, s.weights)
    ref = [mindist2_ref(qv, W[i], s.edges, s.weights) for i in range(40)]
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_boundary_symbols_no_nan():
    """Symbols 0 and alphabet-1 have +-inf edges; the mask-blend must not
    produce NaN from inf*0."""
    s = _summary("sax", alphabet=8)
    W = np.array([[0] * 8, [7] * 8], dtype=np.uint8)
    qv = np.zeros(8)
    got = batch_mindist2(qv, W, s.edges, s.weights)
    assert np.isfinite(got).all()


def test_interval_batch_matches_mindist_ref():
    """The batched box kernel equals the scalar reference run on each
    leaf box as a one-symbol alphabet ``[lo, hi)``."""
    X = znormed(200, 64, seed=11)
    for leaf_size in (1, 7, 64):
        idx = build_sofa(X, l=8, alphabet=256, leaf_size=leaf_size)
        s = idx.summary
        qv = s.approx(znormed(1, 64, seed=13))[0]
        got = batch_interval_mindist2(qv, idx.leaf_lo, idx.leaf_hi, s.weights)
        ref = [mindist2_ref(qv, np.zeros(8, np.int64), np.stack([lo, hi], axis=1),
                            s.weights) for lo, hi in zip(idx.leaf_lo, idx.leaf_hi)]
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_empty_batch():
    s = _summary("sax")
    got = batch_mindist2(np.zeros(8), np.zeros((0, 8), np.uint8), s.edges,
                         s.weights)
    assert got.shape == (0,)
