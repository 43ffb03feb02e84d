"""Unit tests for iSAX: breakpoints, words, hierarchy, lower bound."""
import numpy as np
import pytest

from repro.core.distance import ed2_batch
from repro.summaries.sax import SAXSummary, norm_ppf, sax_breakpoints
from repro.summaries.simd import batch_mindist2
from tests.helpers import columns_of, mindist2_ref, znormed


def test_norm_ppf_known_values():
    assert norm_ppf([0.5])[0] == pytest.approx(0.0, abs=1e-9)
    assert norm_ppf([0.8413447460685429])[0] == pytest.approx(1.0, abs=1e-6)
    assert norm_ppf([0.9772498680518208])[0] == pytest.approx(2.0, abs=1e-6)
    assert norm_ppf([0.0013498980316300933])[0] == pytest.approx(-3.0, abs=1e-5)


def test_norm_ppf_symmetry():
    p = np.linspace(0.01, 0.99, 33)
    np.testing.assert_allclose(norm_ppf(p), -norm_ppf(1 - p), atol=1e-6)


@pytest.mark.parametrize("a", [2, 4, 8, 16, 64, 256])
def test_breakpoints_increasing(a):
    bp = sax_breakpoints(a)
    assert len(bp) == a - 1
    assert (np.diff(bp) > 0).all()


def test_breakpoints_classic_alphabet4():
    # the textbook SAX table for |Sigma|=4: {-0.6745, 0, 0.6745}
    np.testing.assert_allclose(sax_breakpoints(4), [-0.6745, 0.0, 0.6745],
                               atol=1e-4)


@pytest.mark.parametrize("coarse", [2, 4, 8, 16, 32, 64, 128])
def test_breakpoints_hierarchical(coarse):
    """Coarse breakpoints are a subset of the 256-symbol ones — the
    property iSAX's variable-cardinality words rely on."""
    fine = sax_breakpoints(256)
    sub = fine[np.arange(1, coarse) * (256 // coarse) - 1]
    np.testing.assert_allclose(sub, sax_breakpoints(coarse), atol=1e-9)


@pytest.mark.parametrize("alphabet", [4, 16, 256])
def test_words_in_range(alphabet):
    s = SAXSummary(64, l=8, alphabet=alphabet)
    w = s.words(znormed(50, 64, seed=1))
    assert w.dtype == np.uint8
    assert w.min() >= 0 and w.max() < alphabet


def test_word_of_extreme_values_hits_boundary_symbols():
    s = SAXSummary(16, l=4, alphabet=8)
    assert (columns_of(s).words(np.full((1, 4), 100.0)) == 7).all()
    assert (columns_of(s).words(np.full((1, 4), -100.0)) == 0).all()


def test_approx_is_paa():
    from repro.summaries.paa import paa
    s = SAXSummary(64, l=16)
    x = znormed(5, 64, seed=2)
    np.testing.assert_allclose(s.approx(x), paa(x, 16))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n,l,alphabet", [(64, 16, 256), (100, 16, 8),
                                          (256, 16, 4), (96, 8, 64)])
def test_sax_mindist_lower_bounds_ed(seed, n, l, alphabet):
    s = SAXSummary(n, l=l, alphabet=alphabet)
    A = znormed(30, n, seed=seed)
    B = znormed(10, n, seed=seed + 100)
    words = s.words(A)
    for q in B:
        qv = s.approx(q[None, :])[0]
        lbd2 = batch_mindist2(qv, words, s.edges, s.weights)
        true2 = ed2_batch(q, A, rows=np.arange(len(A)))
        assert (lbd2 <= true2 + 1e-9).all()


def test_mindist_zero_for_same_word():
    s = SAXSummary(64, l=16, alphabet=16)
    x = znormed(1, 64, seed=3)
    qv = s.approx(x)[0]
    w = s.words(x)
    assert batch_mindist2(qv, w, s.edges, s.weights)[0] == 0.0


def test_batch_matches_scalar_reference():
    s = SAXSummary(64, l=16, alphabet=32)
    A = znormed(20, 64, seed=4)
    q = znormed(1, 64, seed=5)[0]
    qv = s.approx(q[None, :])[0]
    words = s.words(A)
    batch = batch_mindist2(qv, words, s.edges, s.weights)
    for i in range(20):
        assert batch[i] == pytest.approx(
            mindist2_ref(qv, words[i], s.edges, s.weights), abs=1e-9)


def test_invalid_alphabet_raises():
    with pytest.raises(ValueError):
        SAXSummary(64, l=8, alphabet=100)  # not a power of two
