"""Unit tests for the batched mindist kernels: the table-gather word
kernel and the mask-blend leaf-box kernel (Algorithm 3)."""
import numpy as np
import pytest

from repro.index import build_sofa
from repro.summaries.sax import SAXSummary
from repro.summaries.sfa import SFASummary
from repro.summaries.simd import batch_interval_mindist2, batch_mindist2
from tests.helpers import mindist2_ref, znormed


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
    """Symbols 0 and alphabet-1 have +-inf edges; the table must not
    produce NaN from inf*0."""
    s = _summary("sax", alphabet=8)
    W = np.array([[0] * 8, [7] * 8], dtype=np.uint8)
    qv = np.zeros(8)
    got = batch_mindist2(qv, W, s.edges, s.weights)
    assert np.isfinite(got).all()


@pytest.mark.parametrize("kind", ["sax", "sfa"])
@pytest.mark.parametrize("alphabet", [2, 8, 256])
def test_table_kernel_edge_cases_match_reference(kind, alphabet):
    """Query values on an interior edge, below the first finite edge and
    above the last; words of only symbol 0 or only ``alphabet-1`` (the
    +-inf edges); and an empty batch."""
    s = _summary(kind, alphabet=alphabet)
    l, edges = s.l, s.edges
    rng = np.random.default_rng(alphabet)
    cols = np.arange(l)
    interior = rng.integers(1, alphabet, l)
    below, above = edges[:, 1] - 1.5, edges[:, -2] + 1.5
    queries = {"on_edge": edges[cols, interior], "below_first": below,
               "above_last": above, "mixed": np.where(cols % 2, below, above)}
    words = np.vstack([np.zeros(l), np.full(l, alphabet - 1), interior - 1,
                       interior, rng.integers(0, alphabet, (20, l))]).astype(np.uint8)
    for name, qv in queries.items():
        got = batch_mindist2(qv, words, edges, s.weights)
        assert np.isfinite(got).all(), name
        ref = [mindist2_ref(qv, w, edges, s.weights) for w in words]
        np.testing.assert_allclose(got, ref, atol=1e-12, err_msg=name)
        assert batch_mindist2(qv, words[:0], edges, s.weights).shape == (0,)


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
