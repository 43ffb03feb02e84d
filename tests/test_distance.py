"""Unit tests for the Euclidean distance kernels."""
import numpy as np
import pytest

from repro.core.distance import ed, ed2, ed2_batch


@pytest.mark.parametrize("seed", range(10))
def test_ed2_matches_definition(seed):
    g = np.random.default_rng(seed)
    a, b = g.standard_normal(100), g.standard_normal(100)
    assert ed2(a, b) == pytest.approx(float(((a - b) ** 2).sum()))


def test_ed_is_sqrt_of_ed2():
    g = np.random.default_rng(0)
    a, b = g.standard_normal(50), g.standard_normal(50)
    assert ed(a, b) == pytest.approx(np.sqrt(ed2(a, b)))


def test_identical_series_distance_zero():
    a = np.arange(20.0)
    assert ed2(a, a) == 0.0


@pytest.mark.parametrize("q,n,length", [(1, 1, 8), (3, 5, 16), (10, 40, 64),
                                        (2, 100, 256), (5, 7, 96)])
def test_batch_matches_scalar(q, n, length):
    g = np.random.default_rng(q * 100 + n)
    Q = g.standard_normal((q, length))
    X = g.standard_normal((n, length))
    d2 = ed2_batch(Q, X)
    assert d2.shape == (q, n)
    for i in range(q):
        for j in range(n):
            assert d2[i, j] == pytest.approx(ed2(Q[i], X[j]), abs=1e-8)


def test_batch_nonnegative_even_with_roundoff():
    x = np.ones((5, 64)) * 1e6
    d2 = ed2_batch(x, x)
    assert (d2 >= 0).all()


def test_batch_accepts_1d_inputs():
    g = np.random.default_rng(3)
    a, b = g.standard_normal(32), g.standard_normal(32)
    assert ed2_batch(a, b)[0, 0] == pytest.approx(ed2(a, b))


@pytest.mark.parametrize("seed", range(5))
def test_batch_self_distance_diagonal_zero(seed):
    X = np.random.default_rng(seed).standard_normal((10, 32))
    d2 = ed2_batch(X, X)
    np.testing.assert_allclose(np.diag(d2), 0, atol=1e-7)
