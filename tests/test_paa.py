"""Unit tests for PAA and its lower bound."""
import numpy as np
import pytest

from repro.core.znorm import znormalize
from repro.summaries.paa import paa, segment_bounds, segment_lengths


@pytest.mark.parametrize("n,l", [(16, 4), (64, 16), (100, 16), (256, 16),
                                 (96, 16), (13, 5), (8, 8)])
def test_segment_bounds_cover_range(n, l):
    b = segment_bounds(n, l)
    assert b[0] == 0 and b[-1] == n
    assert (np.diff(b) >= 1).all()
    assert len(b) == l + 1


@pytest.mark.parametrize("n,l", [(64, 16), (100, 16), (13, 5)])
def test_segment_lengths_sum_to_n(n, l):
    assert segment_lengths(n, l).sum() == n


def test_paa_invalid_l_raises():
    with pytest.raises(ValueError):
        segment_bounds(8, 9)
    with pytest.raises(ValueError):
        segment_bounds(8, 0)


def test_paa_of_constant_is_constant():
    np.testing.assert_allclose(paa(np.full((2, 32), 3.5), 8), 3.5)


def test_paa_exact_on_divisible_length():
    x = np.arange(16.0)[None, :]
    got = paa(x, 4)
    np.testing.assert_allclose(got[0], [1.5, 5.5, 9.5, 13.5])


def test_paa_identity_when_l_equals_n():
    g = np.random.default_rng(0)
    x = g.standard_normal((3, 12))
    np.testing.assert_allclose(paa(x, 12), x)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n,l", [(64, 16), (100, 16), (256, 16), (96, 8)])
def test_paa_lower_bound_property(seed, n, l):
    g = np.random.default_rng(seed)
    A = znormalize(g.standard_normal((20, n)))
    B = znormalize(g.standard_normal((20, n)))
    lb2 = ((paa(A, l) - paa(B, l)) ** 2 * segment_lengths(n, l)).sum(axis=1)
    assert (lb2 <= ((A - B) ** 2).sum(axis=1) + 1e-9).all()


def test_paa_mean_preserved():
    g = np.random.default_rng(5)
    x = g.standard_normal((4, 64))
    # PAA weighted by segment lengths preserves the series mean
    w = segment_lengths(64, 16)
    np.testing.assert_allclose((paa(x, 16) * w).sum(axis=1) / 64,
                               x.mean(axis=1), atol=1e-12)


@pytest.mark.parametrize("l", [16, 127, 1])
def test_paa_matches_per_segment_mean(l):
    """Segment sums of float32 input, accumulated in float64, against the
    float64 mean of each segment; a 1-D series gives one row."""
    x = np.random.default_rng(l).standard_normal((40, 127)).astype(np.float32)
    b = segment_bounds(127, l)
    x64 = x.astype(np.float64)
    ref = np.stack([x64[:, s:e].mean(axis=1) for s, e in zip(b[:-1], b[1:])], axis=1)
    got = paa(x, l)
    assert got.dtype == np.float64 and got.shape == (40, l)
    np.testing.assert_allclose(got, ref, rtol=1e-12)
    np.testing.assert_allclose(paa(x[5], l), ref[5:6], rtol=1e-12)
