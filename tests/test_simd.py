"""Unit tests for the batched mindist kernels: the table gather over words
and its clipped form over leaf symbol boxes (Algorithm 3)."""
import numpy as np
import pytest

from repro.index import build_sofa
from repro.summaries.sax import SAXSummary
from repro.summaries.sfa import SFASummary
from repro.summaries.simd import batch_interval_mindist2, batch_mindist2, mindist2_table
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


def _box_ref(qv, lo, hi, edges, weights):
    """``mindist2_ref`` of each symbol box ``[lo, hi]`` as a one-symbol
    alphabet ``[edges[lo], edges[hi + 1])``."""
    cols = np.arange(edges.shape[0])
    lo, hi = np.asarray(lo, np.int64), np.asarray(hi, np.int64)
    return [mindist2_ref(qv, np.zeros(len(cols), np.int64),
                         np.stack([edges[cols, a], edges[cols, b + 1]], axis=1), weights)
            for a, b in zip(lo, hi)]


def test_interval_batch_matches_mindist_ref():
    """The batched box kernel equals the scalar reference run on each
    leaf's symbol box."""
    X = znormed(200, 64, seed=11)
    for leaf_size in (1, 7, 64):
        idx = build_sofa(X, summary=SFASummary.fit(X, l=8), leaf_size=leaf_size)
        s = idx.summary
        qv = s.approx(znormed(1, 64, seed=13))[0]
        got = batch_interval_mindist2(qv, idx.leaf_lo, idx.leaf_hi, s.edges, s.weights)
        ref = _box_ref(qv, idx.leaf_lo, idx.leaf_hi, s.edges, s.weights)
        np.testing.assert_allclose(got, ref, atol=1e-12)


@pytest.mark.parametrize("kind", ["sax", "sfa"])
@pytest.mark.parametrize("alphabet", [2, 8, 256])
def test_interval_kernel_edge_cases_match_reference(kind, alphabet):
    """Query values on an interior edge, below the first finite edge and
    above the last; boxes with ``lo == hi`` (at the +-inf bins too), boxes
    ending or starting at the query's edge, and the full box, which gives
    0; with and without the query's table."""
    s = _summary(kind, alphabet=alphabet)
    l, edges = s.l, s.edges
    rng = np.random.default_rng(alphabet + 1)
    cols = np.arange(l)
    interior = rng.integers(1, alphabet, l)
    below, above = edges[:, 1] - 1.5, edges[:, -2] + 1.5
    queries = {"on_edge": edges[cols, interior], "below_first": below,
               "above_last": above, "mixed": np.where(cols % 2, below, above)}
    pair = np.sort(rng.integers(0, alphabet, (20, 2, l)), axis=1)
    lo = np.vstack([np.zeros(l), np.full(l, alphabet - 1), interior, interior - 1,
                    np.zeros(l), interior, pair[:, 0]]).astype(np.uint8)
    hi = np.vstack([np.zeros(l), np.full(l, alphabet - 1), interior, interior - 1,
                    interior - 1, np.full(l, alphabet - 1), pair[:, 1]]).astype(np.uint8)
    full_lo, full_hi = np.zeros((1, l), np.uint8), np.full((1, l), alphabet - 1, np.uint8)
    for name, qv in queries.items():
        got = batch_interval_mindist2(qv, lo, hi, edges, s.weights)
        np.testing.assert_allclose(got, _box_ref(qv, lo, hi, edges, s.weights),
                                   atol=1e-12, err_msg=name)
        table = mindist2_table(qv, edges)
        assert np.array_equal(
            batch_interval_mindist2(qv, lo, hi, edges, s.weights, table=table), got)
        assert batch_interval_mindist2(qv, full_lo, full_hi, edges, s.weights)[0] == 0.0


def test_empty_batch():
    s = _summary("sax")
    got = batch_mindist2(np.zeros(8), np.zeros((0, 8), np.uint8), s.edges,
                         s.weights)
    assert got.shape == (0,)
