"""Tests for the z-order leaf index: build invariants and exact search."""
import numpy as np
import pytest

from repro.core.znorm import znormalize
from repro.datasets.generators import seismic, sine_mix, vector_gaussian
from repro.datasets.registry import make_dataset, make_queries
from repro.index import build_messi, build_sofa
from repro.index import tree
from repro.index.tree import SearchStats, TreeIndex
from repro.summaries.sax import SAXSummary
from repro.summaries.sfa import SFASummary
from repro.summaries.simd import batch_interval_mindist2
from tests.helpers import brute_knn, mindist2_ref, znormed

BUILDERS = [("sofa", build_sofa), ("messi", build_messi)]
LEAF_SIZES = [1, 7, 16, 64, 1000]


def _gen(kind, n_series, length, seed):
    if kind == "noise":
        return znormed(n_series, length, seed=seed)
    if kind == "seismic":
        return znormalize(seismic(n_series, length, seed=seed))
    if kind == "sine":
        return znormalize(sine_mix(n_series, length, seed=seed))
    return znormalize(vector_gaussian(n_series, length, seed=seed))


# ------------------------------------------------------------------ build
@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("leaf_size", [1, 4, 32, 1000])
def test_all_series_in_exactly_one_leaf(name, builder, leaf_size):
    X = znormed(200, 64, seed=1)
    idx = builder(X, leaf_size=leaf_size)
    assert sorted(idx.perm.tolist()) == list(range(200))
    assert idx.leaf_start[-1] == 200


@pytest.mark.parametrize("name,build", BUILDERS)
def test_leaf_capacity_respected(name, build):
    """Bottom-up full leaves: every leaf but the last holds ``leaf_size``."""
    X = znormed(500, 64, seed=2)
    for leaf_size in LEAF_SIZES:
        sizes = np.diff(build(X, leaf_size=leaf_size).leaf_start)
        assert (sizes[:-1] == leaf_size).all()
        assert 1 <= sizes[-1] <= leaf_size


def test_leaf_words_match_leaf_symbols():
    """Every word lies inside its leaf's symbol box, edge by edge."""
    X = znormed(300, 64, seed=3)
    for _, build in BUILDERS:
        for leaf_size in LEAF_SIZES:
            idx = build(X, leaf_size=leaf_size)
            edges, cols = idx.summary.edges, np.arange(idx.summary.l)
            assert idx.leaf_lo.dtype == idx.leaf_hi.dtype == np.uint8
            lo = edges[cols, idx.leaf_lo.astype(np.int64)]
            hi = edges[cols, idx.leaf_hi.astype(np.int64) + 1]
            w = idx.words_perm.astype(np.int64)
            leaf = np.repeat(np.arange(len(lo)), np.diff(idx.leaf_start))
            assert (lo[leaf] <= edges[cols, w]).all()
            assert (edges[cols, w + 1] <= hi[leaf]).all()


@pytest.mark.parametrize("name,build", BUILDERS)
@pytest.mark.parametrize("leaf_size", LEAF_SIZES)
def test_leaf_box_lbd_bounds_member_words(name, build, leaf_size):
    """GEMINI soundness: a leaf's box LBD never exceeds the LBD of any
    word in it, so skipping the leaf never skips a closer series."""
    X = znormed(300, 64, seed=8)
    idx = build(X, leaf_size=leaf_size)
    s = idx.summary
    for q in znormed(3, 64, seed=9):
        qv = s.approx(q[None, :])[0]
        box = batch_interval_mindist2(qv, idx.leaf_lo, idx.leaf_hi, s.edges, s.weights)
        for lid in range(len(box)):
            for w in idx.words_perm[idx.leaf_start[lid]:idx.leaf_start[lid + 1]]:
                assert box[lid] <= mindist2_ref(qv, w, s.edges, s.weights) * (1 + 1e-12)


def test_root_keys_are_first_bits():
    """Rows are in z-order: symbol bits interleaved MSB-first, one bit
    plane at a time, so the first ``l`` bits are the 1-bit root key."""
    X = znormed(300, 64, seed=4)
    for _, build in BUILDERS:
        idx = build(X, leaf_size=32)
        wb, l = idx.summary.bits, idx.summary.l
        keys = []
        for word in idx.words_perm.astype(int):
            bits = [(word[j] >> (wb - 1 - p)) & 1 for p in range(wb) for j in range(l)]
            keys.append(int("".join(map(str, bits)), 2))
            root_key = int("".join(str(sym >> (wb - 1)) for sym in word), 2)
            assert keys[-1] >> (wb - 1) * l == root_key
        assert keys == sorted(keys)
        ties = [i for i in range(1, len(keys)) if keys[i] == keys[i - 1]]
        assert all(idx.perm[i - 1] < idx.perm[i] for i in ties)


def test_fortran_ordered_words_build_the_same_index():
    """The z-order key and the leaf boxes do not depend on the memory
    order of the words the summary returns."""
    class FortranWords(SAXSummary):
        def words(self, x):
            return np.asfortranarray(super().words(x))

    X = znormed(300, 64, seed=6)
    plain = TreeIndex(SAXSummary(64, l=16, alphabet=256), X, leaf_size=16)
    fortran = TreeIndex(FortranWords(64, l=16, alphabet=256), X, leaf_size=16)
    for name in ("perm", "words_perm", "leaf_start", "leaf_lo", "leaf_hi"):
        np.testing.assert_array_equal(getattr(fortran, name), getattr(plain, name))
    words = plain.summary.words(X)
    np.testing.assert_array_equal(tree._zorder(np.asfortranarray(words), 8),
                                  tree._zorder(words, 8))
    q = znormed(1, 64, seed=7)[0]
    assert fortran.knn(q, k=3) == plain.knn(q, k=3)


def test_structure_stats_consistent():
    X = znormed(400, 64, seed=5)
    for _, build in BUILDERS:
        for leaf_size in LEAF_SIZES:
            idx = build(X, leaf_size=leaf_size)
            sizes = np.diff(idx.leaf_start)
            assert idx.structure_stats() == {
                "n_leaves": len(sizes),
                "mean_leaf_fill": pytest.approx(sizes.mean() / leaf_size)}


def test_empty_index():
    s = SAXSummary(32, l=8, alphabet=16)
    idx = TreeIndex(s, np.zeros((0, 32), np.float32))
    assert idx.knn(np.zeros(32)) == []


def test_rows_stored_as_float32_only_when_exact():
    """A float32 collection is held as is; float64 rows of float32 values
    are stored as float32, and float64 rows that float32 would round keep
    float64."""
    X = znormed(50, 32, seed=8)
    assert np.shares_memory(build_messi(X).X, X)
    wide = X.astype(np.float64)
    assert build_messi(wide).X.dtype == np.float32
    wide[3, 0] += 1e-9
    idx = build_messi(wide)
    assert idx.X.dtype == np.float64
    np.testing.assert_array_equal(idx.X, wide)


def test_single_series_index():
    X = znormed(1, 32, seed=6)
    idx = build_messi(X, leaf_size=4)
    res = idx.knn(X[0], k=1)
    assert res[0][1] == 0 and res[0][0] == pytest.approx(0.0, abs=1e-3)


def test_custom_ids_returned():
    X = znormed(50, 32, seed=7)
    ids = np.arange(50) * 10 + 3
    idx = build_messi(X, ids=ids, leaf_size=8)
    res = idx.knn(X[5], k=1)
    assert res[0][1] == 53


def test_ids_length_mismatch_raises():
    with pytest.raises(ValueError):
        build_messi(znormed(5, 32), ids=np.arange(4))


def test_bad_leaf_size_raises():
    with pytest.raises(ValueError):
        build_messi(znormed(5, 32), leaf_size=0)


# ----------------------------------------------------------------- search
@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("kind", ["noise", "seismic", "sine", "vector"])
@pytest.mark.parametrize("k", [1, 5])
def test_exact_vs_brute_force(name, builder, kind, k):
    X = _gen(kind, 400, 96, seed=11).astype(np.float32)
    Q = _gen(kind, 6, 96, seed=99).astype(np.float32)
    idx = builder(X, leaf_size=32)
    for q in Q:
        got = idx.knn(q, k=k)
        exp = brute_knn(X, q, k)
        assert [i for _, i in got] == [i for _, i in exp]
        np.testing.assert_allclose([d for d, _ in got], [d for d, _ in exp],
                                   atol=1e-5)


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("leaf_size", [1, 7, 64, 10_000])
def test_exact_for_any_leaf_size(name, builder, leaf_size):
    X = znormed(250, 64, seed=21)
    Q = znormed(4, 64, seed=22)
    idx = builder(X, leaf_size=leaf_size)
    for q in Q:
        assert [i for _, i in idx.knn(q, k=3)] == \
            [i for _, i in brute_knn(X, q, 3)]


@pytest.mark.parametrize("chunk_rows", [1, 64, 100_000])
def test_exact_for_any_chunk_granularity(chunk_rows, monkeypatch):
    monkeypatch.setattr(tree, "_CHUNK_ROWS", chunk_rows)
    X = znormed(300, 64, seed=23)
    idx = build_sofa(X, leaf_size=16)
    q = znormed(1, 64, seed=24)[0]
    got = idx.knn(q, k=4)
    assert [i for _, i in got] == [i for _, i in brute_knn(X, q, 4)]


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_query_identical_to_stored_series(name, builder):
    X = znormed(100, 64, seed=25)
    idx = builder(X, leaf_size=8)
    res = idx.knn(X[42], k=1)
    assert res[0][1] == 42
    assert res[0][0] == pytest.approx(0.0, abs=1e-3)


def test_k_larger_than_collection():
    X = znormed(5, 32, seed=26)
    idx = build_messi(X, leaf_size=2)
    assert len(idx.knn(X[0], k=50)) == 5


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_knn_ordering_and_monotone_in_k(name, builder):
    X = znormed(300, 64, seed=27)
    idx = builder(X, leaf_size=16)
    q = znormed(1, 64, seed=28)[0]
    r5 = idx.knn(q, k=5)
    r10 = idx.knn(q, k=10)
    assert r10[:5] == r5
    d = [x[0] for x in r10]
    assert d == sorted(d)


def test_stats_populated_and_pruning_on_clustered_data():
    X = make_dataset("SCEDC", scale=0.2)
    idx = build_sofa(X.astype(np.float32), leaf_size=64)
    q = make_queries("SCEDC", 1, scale=0.2)[0]
    st = SearchStats()
    idx.knn(q.astype(np.float32), k=1, stats=st)
    assert st.n_series == len(X)
    assert st.series_ed_computed >= 1
    assert st.pruning_ratio > 0.5  # SFA prunes hard on clustered seismic


def test_sofa_prunes_better_than_messi_on_high_freq():
    """The paper's headline mechanism (Section V-D / Figure 12)."""
    X = make_dataset("LenDB", scale=0.3).astype(np.float32)
    Q = make_queries("LenDB", 5, scale=0.3).astype(np.float32)
    sofa = build_sofa(X, leaf_size=64)
    messi = build_messi(X, leaf_size=64)
    pr_s, pr_m = [], []
    for q in Q:
        ss, sm = SearchStats(), SearchStats()
        sofa.knn(q, stats=ss)
        messi.knn(q, stats=sm)
        pr_s.append(ss.pruning_ratio)
        pr_m.append(sm.pruning_ratio)
    assert np.mean(pr_s) > np.mean(pr_m) + 0.3


@pytest.mark.parametrize("n_series", [1_000, 7_000])
def test_build_sofa_fits_mcb_on_a_one_percent_sample(n_series):
    """MCB's sample: 1 % of the rows, at least 64, drawn without replacement
    by ``default_rng(seed)``; 6,400 rows is where the floor stops binding."""
    X = znormed(n_series, 32, seed=32)
    rows = np.random.default_rng(5).choice(n_series, max(64, round(0.01 * n_series)),
                                           replace=False)
    exp = SFASummary.fit(X[rows])
    got = build_sofa(X, seed=5).summary
    np.testing.assert_array_equal(got.sel, exp.sel)
    np.testing.assert_array_equal(got.edges, exp.edges)


def test_pre_fit_summary_reused():
    X = znormed(200, 64, seed=30)
    s = SFASummary.fit(X[:50], l=8, alphabet=32)
    idx = build_sofa(X, summary=s, leaf_size=16)
    assert idx.summary is s
    q = znormed(1, 64, seed=31)[0]
    assert [i for _, i in idx.knn(q, k=2)] == \
        [i for _, i in brute_knn(X, q, 2)]


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("id_order", ["reversed", "shuffled"])
@pytest.mark.parametrize("leaf_size", [2, 4])
@pytest.mark.parametrize("k", [1, 3])
def test_exact_ties_follow_brute_force_order(name, builder, id_order, leaf_size, k):
    """Integer rows repeated five times give exact distance ties (the GEMM
    identity is exact on them). A leaf or series whose LBD equals the BSF
    may still hold the smaller-id neighbour, so it must not be skipped."""
    rng = np.random.default_rng(3)
    X = np.repeat(rng.integers(-2, 3, (40, 32)), 5, axis=0).astype(np.float32)
    ids = np.arange(len(X))[::-1] if id_order == "reversed" \
        else rng.permutation(len(X))
    idx = builder(X, ids=ids, leaf_size=leaf_size)
    for q in X:
        d2 = ((X.astype(np.float64) - q.astype(np.float64)) ** 2).sum(axis=1)
        exp = np.lexsort((ids, d2))[:k]
        got = idx.knn(q, k=k)
        assert [i for _, i in got] == ids[exp].tolist()
        np.testing.assert_allclose([d for d, _ in got], np.sqrt(d2[exp]), atol=1e-5)


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("leaf_size", [4, 16])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_float_duplicate_ties_follow_brute_force_order(name, builder, leaf_size, k):
    """Float rows repeated five times: every copy must get the same
    distance bits, so ties among copies fall to the id, as in a brute
    force over direct float64 differences."""
    rng = np.random.default_rng(5)
    X = np.repeat(znormed(40, 64, seed=12), 5, axis=0)
    ids = rng.permutation(len(X))
    idx = builder(X, ids=ids, leaf_size=leaf_size)
    noisy = X[::5] + rng.normal(0, 0.3, (40, 64)).astype(np.float32)
    X64 = X.astype(np.float64)
    for q in np.concatenate([X[::5], noisy]):
        diff = X64 - q.astype(np.float64)
        d2 = (diff * diff).sum(axis=1)
        exp = np.lexsort((ids, d2))[:k]
        got = idx.knn(q, k=k)
        assert [i for _, i in got] == ids[exp].tolist()
        np.testing.assert_allclose([d for d, _ in got], np.sqrt(d2[exp]), rtol=1e-12)


def test_knn_looks_up_kernels_in_tree_module(monkeypatch):
    """The search reaches its kernels through ``repro.index.tree`` at call
    time, so a wrapper set on the module sees every call."""
    calls = dict.fromkeys(["batch_mindist2", "batch_interval_mindist2", "ed2_batch"], 0)
    abandoned = []

    def counting(name):
        fn = getattr(tree, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name == "ed2_batch":
                abandoned.append(int(np.count_nonzero(out == np.inf)))
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(tree, name, counting(name))
    X = make_dataset("LenDB", scale=0.1).astype(np.float32)
    q = make_queries("LenDB", 1, scale=0.1)[0].astype(np.float32)
    st = SearchStats()
    build_messi(X, leaf_size=16).knn(q, k=3, stats=st)
    assert calls["batch_interval_mindist2"] == 1
    assert calls["batch_mindist2"] >= calls["ed2_batch"] >= 1
    assert st.series_ed_abandoned == sum(abandoned) > 0
    assert st.series_ed_abandoned < st.series_ed_computed
