"""Tests for the synthetic generators and the 17-dataset registry."""
import numpy as np
import pytest

from repro.datasets.generators import GENERATORS
from repro.datasets.registry import (REGISTRY, make_dataset, make_queries,
                                     ucr_like)

ALL_GEN = sorted(GENERATORS)
ALL_DS = sorted(REGISTRY)


@pytest.mark.parametrize("gen", ALL_GEN)
def test_generator_shape_and_dtype(gen):
    x = GENERATORS[gen](7, 64, seed=1)
    assert x.shape == (7, 64)
    assert x.dtype == np.float32
    assert np.isfinite(x).all()


@pytest.mark.parametrize("gen", ALL_GEN)
def test_generator_deterministic(gen):
    a = GENERATORS[gen](5, 48, seed=3)
    b = GENERATORS[gen](5, 48, seed=3)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("gen", ALL_GEN)
def test_generator_seed_sensitivity(gen):
    a = GENERATORS[gen](5, 48, seed=3)
    b = GENERATORS[gen](5, 48, seed=4)
    assert not np.array_equal(a, b)


def test_registry_has_17_paper_datasets():
    assert len(REGISTRY) == 17
    assert sum(s.paper_n for s in REGISTRY.values()) > 1_000_000_000


@pytest.mark.parametrize("name", ALL_DS)
def test_registry_lengths_match_paper(name):
    spec = REGISTRY[name]
    paper_lengths = {"BigANN": 100, "Deep1b": 96, "SALD": 128, "SIFT1b": 128}
    assert spec.length == paper_lengths.get(name, 256)


@pytest.mark.parametrize("name", ["LenDB", "Astro", "SIFT1b", "Iquique"])
def test_make_dataset_shapes_and_znorm(name):
    x = make_dataset(name, scale=0.02)
    assert x.shape[1] == REGISTRY[name].length
    np.testing.assert_allclose(x.mean(axis=1), 0, atol=1e-5)


@pytest.mark.parametrize("name", ["LenDB", "SALD"])
def test_make_dataset_deterministic(name):
    np.testing.assert_array_equal(make_dataset(name, scale=0.02),
                                  make_dataset(name, scale=0.02))


def test_queries_disjoint_from_data():
    x = make_dataset("ETHZ", scale=0.02)
    q = make_queries("ETHZ", 5, scale=0.02)
    d = ((x[None, :, :10] - q[:, None, :10]) ** 2).sum(-1)
    assert d.min() > 0  # no identical prefix -> query not in index set


def test_queries_have_close_neighbors():
    """Clustered draws: a query's NN is much closer than the average —
    the redundancy real collections have (DESIGN.md substitution)."""
    from repro.core.distance import ed2_batch
    x = make_dataset("SCEDC", scale=0.1)
    q = make_queries("SCEDC", 5, scale=0.1)
    d = np.sqrt(np.stack([ed2_batch(qi, x, rows=np.arange(len(x))) for qi in q]))
    assert (d.min(axis=1) < 0.6 * d.mean(axis=1)).all()


def test_scale_controls_size():
    a = make_dataset("Astro", scale=0.01)
    b = make_dataset("Astro", scale=0.02)
    assert len(b) == 2 * len(a)


def test_size_tiers_ordered_like_paper():
    for s in REGISTRY.values():
        for t in REGISTRY.values():
            if s.paper_n > t.paper_n:
                assert s.repro_n >= t.repro_n


def test_freq_profiles_cover_both_regimes():
    profiles = {s.freq_profile for s in REGISTRY.values()}
    assert {"low", "high", "flat"} <= profiles


def test_high_freq_datasets_have_higher_selected_coeffs():
    """Fig. 13's premise: SFA selects higher-frequency components on the
    high-frequency datasets than on the low-frequency ones."""
    from repro.summaries.sfa import SFASummary
    hi = make_dataset("SCEDC", scale=0.1)
    lo = make_dataset("Meier2019JGR", scale=0.2)
    s_hi = SFASummary.fit(hi, l=16, alphabet=16)
    s_lo = SFASummary.fit(lo, l=16, alphabet=16)
    # the mean selected scalar component index (real part of coefficient k
    # at 2k - 1, imaginary part at 2k), Fig. 13's x-axis
    assert np.mean(2 * s_hi.coeffs - 1 + s_hi.imag) > np.mean(2 * s_lo.coeffs - 1 + s_lo.imag)


def test_ucr_like_suite():
    suite = ucr_like(n_train=20, n_test=5)
    assert len(suite) == 20
    names = [n for n, _, _ in suite]
    assert len(set(names)) == 20
    for _, train, test in suite:
        assert train.shape[0] == 20 and test.shape[0] == 5
        assert train.shape[1] == test.shape[1]
        np.testing.assert_allclose(train.mean(axis=1), 0, atol=1e-5)


def test_ucr_like_deterministic():
    a = ucr_like(n_train=10, n_test=3)
    b = ucr_like(n_train=10, n_test=3)
    for (na, ta, qa), (nb, tb, qb) in zip(a, b):
        assert na == nb
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(qa, qb)
