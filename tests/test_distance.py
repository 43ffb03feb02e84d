"""Unit tests for the exact distance kernel and the shared top-k."""
import numpy as np
import pytest

from repro.core.distance import PRUNE_SLACK, TopK, ed2_batch


def _every(q, X):
    """The kernel over every row of ``X``."""
    return ed2_batch(q, X, rows=np.arange(len(X)))


@pytest.mark.parametrize("seed", range(10))
def test_ed2_matches_definition(seed):
    g = np.random.default_rng(seed)
    a, b = g.standard_normal(100), g.standard_normal(100)
    assert _every(a, b[None, :])[0] == pytest.approx(float(((a - b) ** 2).sum()))


def test_identical_series_distance_zero():
    a = np.arange(20.0)
    assert ed2_batch(a, a[None, :], rows=np.array([0]))[0] == 0.0


def test_rows_are_required():
    """One algorithm, no mode: the rows are always named."""
    with pytest.raises(TypeError):
        ed2_batch(np.zeros(4), np.zeros((2, 4)))


@pytest.mark.parametrize("q,n,length", [(1, 1, 8), (3, 5, 16), (10, 40, 64),
                                        (2, 100, 256), (5, 7, 96)])
def test_batch_matches_scalar(q, n, length):
    g = np.random.default_rng(q * 100 + n)
    Q = g.standard_normal((q, length))
    X = g.standard_normal((n, length))
    for i in range(q):
        d2 = _every(Q[i], X)
        assert d2.shape == (n,)
        for j in range(n):
            assert d2[j] == pytest.approx(((Q[i] - X[j]) ** 2).sum(), abs=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_batch_self_distance_diagonal_zero(seed):
    """Direct differences give a row's distance to itself as exactly 0."""
    X = np.random.default_rng(seed).standard_normal((10, 32))
    assert [_every(x, X)[i] for i, x in enumerate(X)] == [0.0] * len(X)


# ------------------------------------------ early-abandoning verification
def _direct_d2(q, X):
    diff = X.astype(np.float64) - np.asarray(q, dtype=np.float64)
    return (diff * diff).sum(axis=1)


@pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 97, 256])
def test_abandon_without_bound_matches_direct_differences(length):
    g = np.random.default_rng(length)
    X = g.standard_normal((50, length)).astype(np.float32)
    q = g.standard_normal(length)
    rows = g.permutation(50)[:30]
    got = ed2_batch(q, X, rows=rows)
    assert got.shape == (30,) and got.dtype == np.float64
    np.testing.assert_allclose(got, _direct_d2(q, X[rows]), rtol=1e-12, atol=0)


@pytest.mark.parametrize("length", [1, 3, 64, 97])
def test_abandon_equal_rows_get_bit_equal_distances(length):
    """Copies of a row at different positions, in batches of different
    sizes and under different bounds, get the same bits."""
    g = np.random.default_rng(10 + length)
    base = g.standard_normal((8, length)).astype(np.float32)
    X = np.concatenate([base, g.standard_normal((5, length)).astype(np.float32), base])
    q = g.standard_normal(length)
    full = ed2_batch(q, X, rows=np.arange(len(X)))
    assert np.array_equal(full[:8], full[13:])
    for rows in (np.arange(len(X))[::-1], np.arange(13, 21), np.array([20, 2, 15])):
        for bound2 in (np.inf, float(np.max(full)), float(np.median(full))):
            got = ed2_batch(q, X, rows=rows, bound2=bound2)
            done = got != np.inf
            assert np.array_equal(got[done], full[rows[done]])


@pytest.mark.parametrize("seed", range(5))
def test_abandon_drops_only_rows_above_the_bound(seed):
    """Rows whose whole distance lies in the first cut, in the first two,
    or spread out: a row whose distance equals the bound survives every
    cut."""
    g = np.random.default_rng(seed)
    q = g.standard_normal(128).astype(np.float32).astype(np.float64)
    noise = g.standard_normal((400, 128))
    noise[:100, 32:] = 0.0
    noise[100:200, 64:] = 0.0
    X = (q + noise).astype(np.float32)
    rows = g.permutation(400)
    full = ed2_batch(q, X, rows=rows)
    true = _direct_d2(q, X[rows])
    for bound2 in np.r_[np.quantile(full, [0.0, 0.05, 0.5, 0.95]), full[:40]]:
        got = ed2_batch(q, X, rows=rows, bound2=bound2)
        kept = full <= bound2
        assert np.array_equal(got[kept], full[kept])
        assert (true[got == np.inf] > bound2).all()
        assert (got[~kept] > bound2).all()


def test_abandon_empty_and_repeated_rows():
    g = np.random.default_rng(4)
    X = g.standard_normal((6, 16)).astype(np.float32)
    q = g.standard_normal(16)
    assert ed2_batch(q, X, rows=np.array([], dtype=np.int64)).shape == (0,)
    assert ed2_batch(q, X, rows=[]).shape == (0,)
    got = ed2_batch(q, X, rows=np.array([3, 1, 3, 3, 1]))
    assert got[0] == got[2] == got[3] and got[1] == got[4]
    np.testing.assert_allclose(got, _direct_d2(q, X[[3, 1, 3, 3, 1]]), rtol=1e-12)


def _topk(d2, ids, k):
    top = TopK(k)
    top.push(np.asarray(d2, dtype=np.float64), np.asarray(ids))
    return top


def test_topk_orders_by_distance_then_id():
    d2 = np.array([2.0, 1.0, np.inf, 1.0, 0.5, 1.0])
    ids = np.array([9, 8, 0, 3, 7, 5])
    top = _topk(d2, ids, 3)
    assert top.d2.tolist() == [0.5, 1.0, 1.0]
    assert top.ids.tolist() == [7, 3, 5]
    assert top.pairs() == [(np.sqrt(0.5), 7), (1.0, 3), (1.0, 5)]
    # k >= N keeps every pair, an ``inf`` last
    assert _topk(d2, ids, 99).ids.tolist() == [7, 3, 5, 8, 9, 0]
    assert _topk(d2[:0], ids[:0], 2).pairs() == []
    # pushed in pieces: the same top-k, an empty push changes nothing
    top = TopK(3)
    for lo, hi in ((0, 2), (2, 2), (2, 4), (4, 6), (6, 6)):
        top.push(d2[lo:hi], ids[lo:hi])
    assert top.ids.tolist() == [7, 3, 5]


def test_topk_bound2_is_inf_until_k_rows_are_held():
    top = TopK(3)
    assert top.bound2() == np.inf
    top.push(np.array([4.0, 1.0]), np.array([1, 2]))
    assert top.bound2() == np.inf
    top.push(np.array([9.0]), np.array([3]))
    assert top.bound2() == 9.0 * PRUNE_SLACK
    # an abandoned (inf) or worse row is not kept; a tie is, and wins on id
    top.push(np.array([np.inf, 10.0, 9.0]), np.array([0, 0, 0]))
    assert top.pairs() == [(1.0, 2), (2.0, 1), (3.0, 0)]
    # held ``inf`` pairs count toward k; the bound is the k-th d2 with the slack
    assert _topk([np.inf, np.inf], [5, 4], 2).bound2() == np.inf
    assert _topk([np.inf, 1.0], [5, 4], 1).bound2() == PRUNE_SLACK
