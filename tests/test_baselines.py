"""Tests for the UCR-scan and flat-L2 baseline engines."""
import numpy as np
import pytest

from repro.baselines import flat_knn, flat_l2, ucr_knn
from tests.helpers import brute_knn, znormed


@pytest.mark.parametrize("engine", [ucr_knn, flat_knn])
@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("seed", range(4))
def test_exact_vs_brute_force(engine, k, seed):
    X = znormed(150, 64, seed=seed)
    Q = znormed(5, 64, seed=seed + 50)
    res = engine(X, Q, k=k)
    for qi, q in enumerate(Q):
        exp = brute_knn(X, q, k)
        assert [i for _, i in res[qi]] == [i for _, i in exp]
        np.testing.assert_allclose([d for d, _ in res[qi]],
                                   [d for d, _ in exp], atol=1e-6)


@pytest.mark.parametrize("engine", [ucr_knn, flat_knn])
def test_custom_ids(engine):
    X = znormed(30, 32, seed=9)
    ids = np.arange(30) * 7
    res = engine(X, X[3][None, :], k=1, ids=ids)
    assert res[0][0][1] == 21


@pytest.mark.parametrize("engine", [ucr_knn, flat_knn])
def test_k_exceeds_collection(engine):
    X = znormed(4, 32, seed=10)
    res = engine(X, X[:1], k=99)
    assert len(res[0]) == 4


@pytest.mark.parametrize("engine", [ucr_knn, flat_knn])
def test_results_sorted(engine):
    X = znormed(80, 48, seed=11)
    res = engine(X, znormed(2, 48, seed=12), k=10)
    for r in res:
        assert [d for d, _ in r] == sorted(d for d, _ in r)


@pytest.mark.parametrize("n_series", [1, 2047, 2048, 2049, 4097])
def test_ucr_blocking_does_not_change_result(n_series):
    """Collections ending just before, at and after a block seam."""
    X = znormed(n_series, 48, seed=13)
    Q = znormed(3, 48, seed=14)
    got = ucr_knn(X, Q, k=4)
    exp = flat_knn(X, Q, k=4)
    for a, b in zip(got, exp):
        assert [i for _, i in a] == [i for _, i in b]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_ucr_duplicates_across_a_block_seam_fall_to_the_smaller_id(k):
    """Copies of one row on both sides of the 2,048-row seam, the smaller
    ids in the later block: a tie with the BSF of the first block is kept
    and wins on id."""
    X = znormed(2100, 32, seed=16)
    X[[2040, 2047, 2048, 2060]] = X[2000]
    ids = np.arange(len(X))[::-1] * 3
    q = X[2000] + np.float32(0.01)
    res = ucr_knn(X, q[None, :], k=k, ids=ids)[0]
    exp = brute_knn(X, q, k, ids=ids)
    assert [i for _, i in res] == [i for _, i in exp]
    np.testing.assert_allclose([d for d, _ in res], [d for d, _ in exp], atol=1e-6)
    assert res[0][1] == ids[2060]


def test_single_query_single_series():
    X = znormed(1, 16, seed=15)
    for engine in (ucr_knn, flat_knn):
        res = engine(X, X, k=1)
        assert res[0][0][1] == 0


@pytest.mark.parametrize("engine", [ucr_knn, flat_knn])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_exact_ties_follow_brute_force_order(engine, k):
    """Duplicate rows tie exactly; the k-th place goes to the smaller id."""
    g = np.random.default_rng(0)
    X = np.repeat(g.integers(-2, 3, (40, 32)), 5, axis=0).astype(np.float32)
    res = engine(X, X, k=k)
    for qi, q in enumerate(X):
        exp = brute_knn(X, q, k)
        assert [i for _, i in res[qi]] == [i for _, i in exp]
        np.testing.assert_allclose([d for d, _ in res[qi]],
                                   [d for d, _ in exp], atol=1e-6)


def test_flat_gemm_runs_over_query_blocks(monkeypatch):
    """No GEMM call of ``flat_knn`` gets more than ``QUERY_BLOCK`` queries,
    and answers over several blocks, the last one partial, equal brute force."""
    gemm_rows = []
    gemm = flat_l2._gemm_ed2

    def logged(queries, X, xx):
        gemm_rows.append(len(queries))
        return gemm(queries, X, xx)

    monkeypatch.setattr(flat_l2, "_gemm_ed2", logged)
    X = znormed(200, 32, seed=17)
    Q = znormed(2 * flat_l2.QUERY_BLOCK + 5, 32, seed=18)
    res = flat_knn(X, Q, k=3)
    assert gemm_rows == [flat_l2.QUERY_BLOCK, flat_l2.QUERY_BLOCK, 5]
    assert len(res) == len(Q)
    for qi, q in enumerate(Q):
        exp = brute_knn(X, q, 3)
        assert [i for _, i in res[qi]] == [i for _, i in exp]
        np.testing.assert_allclose([d for d, _ in res[qi]], [d for d, _ in exp], atol=1e-6)


def test_flat_clips_negative_gemm_roundoff():
    """Copies of rows near 1e6: the GEMM identity's absolute round-off
    (about eps * 1e14) makes some of their values negative. Clipped to 0,
    they still shortlist the copies, and every copy comes back at distance
    0, ties in id order."""
    g = np.random.default_rng(5)
    X = np.repeat(1e6 + g.standard_normal((4, 64)), 3, axis=0)
    for k in (1, 3):
        res = flat_knn(X, X, k=k)
        for qi in range(len(X)):
            first = qi - qi % 3
            assert res[qi] == [(0.0, first + j) for j in range(k)]
