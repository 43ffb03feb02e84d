"""SFA's scaled Fourier components: the candidate layout, the weights
(2, or 1 at Nyquist), Parseval over every non-DC component and the lower
bound of any component subset."""
import numpy as np
import pytest

from repro.core.znorm import znormalize
from repro.summaries.sfa import N_CANDIDATE_COEFFS, SFASummary
from tests.helpers import znormed


def every_component(n: int) -> SFASummary:
    """A summary of every non-DC component of length-``n`` series: the real
    parts of coefficients 1..n//2, then the imaginary parts of 1..(n-1)//2."""
    k = np.arange(1, n // 2 + 1)
    coeffs = np.concatenate([k, k[:(n - 1) // 2]])
    imag = np.arange(len(coeffs)) >= len(k)
    edges = np.tile([-np.inf, 0.0, np.inf], (len(coeffs), 1))
    return SFASummary(n, coeffs, imag, edges, alphabet=2)


def lb2(s: SFASummary, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The squared lower bound ``sum_j w_j (a_j - b_j)^2`` of each row pair."""
    return ((s.approx(A) - s.approx(B)) ** 2 * s.weights).sum(axis=1)


def n_candidates(n: int) -> int:
    """Every non-DC component up to n = 33, then the first 16 coefficients'."""
    return min(n - 1, 2 * N_CANDIDATE_COEFFS)


@pytest.mark.parametrize("n", [8, 16, 17, 64, 96, 100, 128, 255, 256])
def test_component_space_shape(n):
    m = n_candidates(n)
    s = SFASummary.fit(znormed(100, n, seed=n), l=m, alphabet=4)
    layout = set(zip(s.coeffs.tolist(), s.imag.tolist()))
    assert len(layout) == m
    assert s.coeffs.min() == 1 and s.coeffs.max() == min(N_CANDIDATE_COEFFS, n // 2)
    if m == n - 1:  # real series of length n have n scalar dofs, DC one of them
        full = every_component(n)
        assert layout == set(zip(full.coeffs.tolist(), full.imag.tolist()))
    with pytest.raises(ValueError, match=f"only {m} candidate components"):
        SFASummary.fit(znormed(100, n, seed=n), l=m + 1, alphabet=4)


@pytest.mark.parametrize("n", [8, 64, 100, 256, 255])
def test_weights_are_2_except_dc_and_nyquist(n):
    fitted = SFASummary.fit(znormed(100, n, seed=n), l=n_candidates(n), alphabet=4)
    for s in (every_component(n), fitted):
        nyquist = 2 * s.coeffs == n
        assert not (nyquist & s.imag).any()  # Nyquist's imaginary part is zero
        np.testing.assert_array_equal(s.weights, np.where(nyquist, 1.0, 2.0))
    assert (every_component(n).weights == 1.0).sum() == (n % 2 == 0)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [16, 64, 100, 256, 255])
def test_parseval_full_components_give_exact_ed(seed, n):
    """For z-normalized rows (DC 0), every non-DC component with its weight
    gives the ED exactly; up to n = 33 those are MCB's candidates."""
    g = np.random.default_rng(seed)
    A = znormalize(g.standard_normal((4, n)))
    B = znormalize(g.standard_normal((4, n)))
    summaries = [every_component(n)]
    if n_candidates(n) == n - 1:
        summaries.append(SFASummary.fit(A, l=n - 1, alphabet=4))
    for s in summaries:
        np.testing.assert_allclose(lb2(s, A, B), ((A - B) ** 2).sum(axis=1), rtol=1e-9)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("keep", [1, 4, 16, 33])
def test_subset_components_lower_bound(seed, keep):
    n = 128
    g = np.random.default_rng(seed)
    A = znormalize(g.standard_normal((10, n)))
    B = znormalize(g.standard_normal((10, n)))
    full = every_component(n)
    low_pass = SFASummary(n, full.coeffs[:keep], full.imag[:keep], full.edges[:keep], 2)
    fitted = SFASummary.fit(znormed(100, n, seed=seed), l=min(keep, n_candidates(n)),
                            alphabet=4)
    for s in (low_pass, fitted):
        assert (lb2(s, A, B) <= ((A - B) ** 2).sum(axis=1) + 1e-9).all()


def test_dc_component_zero_for_znormalized():
    x = znormalize(np.random.default_rng(0).standard_normal((5, 64)))
    dc = SFASummary(64, [0], [False], [[-np.inf, 0.0, np.inf]], alphabet=2)
    np.testing.assert_allclose(dc.approx(x)[:, 0], 0, atol=1e-9)


def test_random_subset_still_lower_bounds():
    """Any subset of non-DC components lower-bounds the ED, z-normalized
    or not."""
    n = 96
    g = np.random.default_rng(9)
    A, B = g.standard_normal((20, n)), g.standard_normal((20, n))
    full = every_component(n)
    sel = g.choice(full.l, size=16, replace=False)
    s = SFASummary(n, full.coeffs[sel], full.imag[sel], full.edges[sel], 2)
    assert (lb2(s, A, B) <= ((A - B) ** 2).sum(axis=1) + 1e-9).all()


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        every_component(64).approx(np.zeros((2, 32)))
