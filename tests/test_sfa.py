"""Unit tests for SFA: MCB fitting, transform, and lower bound."""
import numpy as np
import pytest

from repro.core.distance import ed2_batch
from repro.summaries.sfa import N_CANDIDATE_COEFFS, SFASummary
from repro.summaries.simd import batch_mindist2
from repro.datasets.generators import seismic, sine_mix
from tests.helpers import mindist2_ref, znormed
from repro.core.znorm import znormalize


def fit(seed=0, n=128, N=300, **kw):
    return SFASummary.fit(znormed(N, n, seed=seed), **kw)


@pytest.mark.parametrize("l,alphabet", [(4, 4), (8, 16), (16, 256), (16, 4)])
def test_fit_shapes(l, alphabet):
    s = fit(l=l, alphabet=alphabet)
    assert s.edges.shape == (l, alphabet + 1)
    assert s.weights.shape == (l,)
    assert s.coeffs.shape == s.imag.shape == (l,)


def test_edges_monotone_nondecreasing():
    for binning in ("equi_width", "equi_depth"):
        s = fit(binning=binning)
        interior = s.edges[:, 1:-1]
        assert (np.diff(interior, axis=1) >= -1e-12).all()


def test_equi_width_bins_uniform():
    s = fit(binning="equi_width", alphabet=16)
    interior = s.edges[:, 1:-1]
    widths = np.diff(interior, axis=1)
    # all interior bins of one component share one width
    spread = widths.max(axis=1) - widths.min(axis=1)
    assert (spread <= 1e-6 * np.abs(widths).max(axis=1)).all()


def test_equi_depth_bins_balanced():
    X = znormed(2000, 64, seed=3)
    s = SFASummary.fit(X, l=8, alphabet=8, binning="equi_depth")
    words = s.words(X)
    # each symbol holds roughly 1/8 of the fitting sample
    for j in range(8):
        counts = np.bincount(words[:, j], minlength=8) / len(X)
        assert counts.max() < 0.25


def test_variance_selection_prefers_high_variance():
    # planted energy at k=9: variance selection must include component(s)
    # of that coefficient, though low-pass selection would rank them last
    x = znormalize(sine_mix(400, 128, seed=1, n_components=1,
                            freq_lo=9 / 128, freq_hi=9.01 / 128, noise=0.05))
    s = SFASummary.fit(x, l=4, alphabet=8)
    assert 9 in s.coeffs


def test_dc_excluded_from_selection():
    s = fit()
    assert (s.coeffs >= 1).all()


def test_candidate_restriction_respected():
    # planted energy at k=30, beyond the candidates 1..16
    x = znormalize(sine_mix(400, 128, seed=1, n_components=1,
                            freq_lo=30 / 128, freq_hi=30.01 / 128, noise=0.05))
    s = SFASummary.fit(x, l=16, alphabet=8)
    assert N_CANDIDATE_COEFFS == 16
    assert ((1 <= s.coeffs) & (s.coeffs <= 16)).all()


def test_too_few_candidates_raises():
    # length 16 has 15 candidate components: k=1..7 real and imaginary, and
    # the Nyquist real part at k=8
    with pytest.raises(ValueError, match="only 15 candidate components"):
        fit(n=16, l=16)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_raises(bad):
    X = znormed(100, 64, seed=4).astype(np.float64)
    X[17, 5] = bad
    with pytest.raises(ValueError, match="sample values must be finite"):
        SFASummary.fit(X, l=8, alphabet=16)


def test_layout_shape_mismatch_raises():
    s = fit(l=4, alphabet=4)
    with pytest.raises(ValueError, match="imag shape"):
        SFASummary(s.n, s.coeffs, s.imag[:3], s.edges, s.alphabet)


def test_bad_binning_raises():
    with pytest.raises(ValueError):
        fit(binning="kmeans")


def test_transform_deterministic():
    s = fit(seed=5)
    x = znormed(10, 128, seed=6)
    np.testing.assert_array_equal(s.words(x), s.words(x))


def test_words_range():
    s = fit(alphabet=32)
    w = s.words(znormed(100, 128, seed=7))
    assert w.dtype == np.uint8 and w.max() < 32


@pytest.mark.parametrize("n", [128, 127])
@pytest.mark.parametrize("selection", ["variance", "first"])
@pytest.mark.parametrize("rows", [1, 500])
def test_approx_bit_equal_to_selected_dft_components(n, selection, rows):
    """Any component selection: MCB's variance ranking, or the first ``l``
    components after DC in order (a low-pass selection, set directly)."""
    s = fit(n=n)
    if selection == "first":
        # real then imaginary part of coefficients 1..l/2
        s = SFASummary(n=n, coeffs=np.repeat(np.arange(1, s.l // 2 + 1), 2),
                       imag=np.arange(s.l) % 2 == 1, edges=s.edges, alphabet=s.alphabet)
    x = znormed(rows, n, seed=8)
    spec = np.fft.rfft(x.astype(np.float64), axis=1) / np.sqrt(n)
    ref = np.stack([spec[:, k].imag if im else spec[:, k].real
                    for k, im in zip(s.coeffs, s.imag)], axis=1)
    assert np.array_equal(s.approx(x), ref)


def test_length_mismatch_raises():
    s = fit(n=128)
    with pytest.raises(ValueError):
        s.approx(np.zeros((2, 64)))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("binning", ["equi_width", "equi_depth"])
@pytest.mark.parametrize("alphabet", [4, 16, 256])
def test_sfa_mindist_lower_bounds_ed(seed, binning, alphabet):
    """The load-bearing property: SFA LBD never exceeds the true distance, even for
    queries far outside the fitted sample's value range."""
    n = 100
    train = znormed(200, n, seed=seed)
    s = SFASummary.fit(train, l=16, alphabet=alphabet, binning=binning)
    data = znormalize(seismic(30, n, seed=seed + 50))
    words = s.words(data)
    queries = znormed(5, n, seed=seed + 99) * 1.0
    for q in queries:
        qv = s.approx(q[None, :])[0]
        lbd2 = batch_mindist2(qv, words, s.edges, s.weights)
        true2 = ed2_batch(q, data, rows=np.arange(len(data)))
        assert (lbd2 <= true2 + 1e-9).all()


def test_mindist_zero_within_own_bins():
    s = fit(seed=8)
    x = znormed(5, 128, seed=9)
    for i in range(5):
        qv = s.approx(x[i][None, :])[0]
        w = s.words(x[i][None, :])
        assert batch_mindist2(qv, w, s.edges, s.weights)[0] == 0.0


def test_batch_matches_scalar_reference():
    s = fit(seed=10, alphabet=64)
    A = znormed(25, 128, seed=11)
    q = znormed(1, 128, seed=12)[0]
    qv = s.approx(q[None, :])[0]
    words = s.words(A)
    batch = batch_mindist2(qv, words, s.edges, s.weights)
    for i in range(25):
        assert batch[i] == pytest.approx(
            mindist2_ref(qv, words[i], s.edges, s.weights), abs=1e-9)
