"""Tests for the z-order leaf index: build invariants and exact search."""
import inspect
import os
import threading

import numpy as np
import pytest

from repro.core.znorm import znormalize
from repro.datasets.generators import seismic, sine_mix, vector_gaussian
from repro.datasets.registry import make_dataset, make_queries
from repro.distrib.search import exact_knn
from repro.index import build_messi, build_sofa
from repro.index import tree
from repro.index.tree import SearchStats, TreeIndex
from repro.summaries.sax import SAXSummary
from repro.summaries.sfa import SFASummary
from repro.summaries.simd import batch_interval_mindist2, mindist2_table
from tests.helpers import brute_knn, mindist2_ref, zorder_ref, znormed

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


def _zorder_words(kind: str, n_rows: int, l: int, word_bits: int, seed: int) -> np.ndarray:
    """(N, l) words of ``word_bits``-bit symbols: ``duplicates`` draws rows
    from a small pool, so copies sit at shuffled rows; ``first_word_ties``
    gives every row the same first 64 key bits and random later bit
    planes; ``all_equal`` repeats one word."""
    g = np.random.default_rng(seed)
    rand = g.integers(0, 1 << word_bits, (n_rows, l)).astype(np.uint8)
    if kind == "duplicates":
        return rand[g.integers(0, max(n_rows // 5, 1), n_rows)]
    if kind == "all_equal":
        return np.repeat(rand[:1], n_rows, axis=0)
    # symbol bits whose key bit p * l + j lies in the first 64-bit word
    first = np.zeros(l, dtype=np.uint8)
    for p in range(word_bits):
        for j in range(l):
            if p * l + j < 64:
                first[j] |= 1 << (word_bits - 1 - p)
    return (rand[:1] & first) | (rand & ~first)


@pytest.mark.parametrize("kind", ["duplicates", "first_word_ties", "all_equal"])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 500])
@pytest.mark.parametrize("l", [3, 8, 16, 17])
@pytest.mark.parametrize("word_bits", [1, 2, 8])
def test_zorder_matches_python_int_keys(word_bits, l, n_rows, kind):
    """``_zorder`` sorts by the whole key and then the row, for keys under,
    at and over 64 bits (up to three key words), ties in the first word
    and whole-key ties included."""
    words = _zorder_words(kind, n_rows, l, word_bits, seed=word_bits * 100 + l)
    order = tree._zorder(words, word_bits)
    np.testing.assert_array_equal(order, zorder_ref(words, word_bits))
    if kind == "first_word_ties" and n_rows > 1 and word_bits * l > 64:
        assert len(np.unique(words, axis=0)) > 1  # the later planes decide


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


@pytest.mark.parametrize("fn", [TreeIndex, build_sofa, build_messi, exact_knn])
def test_every_tree_defaults_to_leaf_rows(fn):
    """SOFA, MESSI and every Spark partition share one leaf size."""
    assert inspect.signature(fn).parameters["leaf_size"].default == tree.LEAF_ROWS


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_default_ids_are_the_leaf_order_itself(name, builder):
    """Without ids, the leaf-order ids are ``perm`` itself, not a copy."""
    idx = builder(znormed(300, 64, seed=9))
    assert idx.ids_perm is idx.perm


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_shuffled_ids_are_stored_in_leaf_order(name, builder):
    X = znormed(300, 64, seed=10)
    ids = np.random.default_rng(11).permutation(300) * 7 + 5
    idx = builder(X, ids=ids, leaf_size=16)
    np.testing.assert_array_equal(idx.ids_perm, ids[idx.perm])
    for q in znormed(4, 64, seed=12):
        got, exp = idx.knn(q, k=5), brute_knn(X, q, 5, ids=ids)
        assert [i for _, i in got] == [i for _, i in exp]
        np.testing.assert_allclose([d for d, _ in got], [d for d, _ in exp], rtol=1e-12)


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("n_rows,dtype", [(256, np.uint8), (257, np.uint16),
                                          (65_536, np.uint16), (65_537, np.uint32)])
def test_perm_is_the_narrowest_unsigned_type(name, builder, n_rows, dtype):
    """``perm`` holds row positions in the narrowest unsigned type, so the
    last row is still found on both sides of each type's limit; caller ids
    keep int64, beyond the range of any row position."""
    X = znormed(n_rows, 32, seed=13)
    idx = builder(X)
    assert idx.perm.dtype == dtype
    assert idx.knn(X[-1], k=1) == [(0.0, n_rows - 1)]
    big = builder(X, ids=2**40 + np.arange(n_rows))
    assert big.ids_perm.dtype == np.int64
    assert big.knn(X[-1], k=1) == [(0.0, 2**40 + n_rows - 1)]


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("n_rows", [1, 200, 640])
def test_index_arrays_are_words_perm_and_leaf_boxes(name, builder, n_rows):
    """Besides the rows, an index without ids keeps one word and one row
    position per row and a two-word box per leaf; the leaf offsets follow
    from ``leaf_size`` and are not stored."""
    idx = builder(znormed(n_rows, 64, seed=14))
    arrays = {id(v): v for v in vars(idx).values()
              if isinstance(v, np.ndarray) and v is not idx.X}
    n_leaves, l = -(-n_rows // tree.LEAF_ROWS), idx.summary.l
    assert sum(a.nbytes for a in arrays.values()) == \
        n_rows * l + n_rows * idx.perm.itemsize + 2 * n_leaves * l
    assert "leaf_start" not in vars(idx)


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
    monkeypatch.setattr(tree, "_FIRST_CHUNK_ROWS", chunk_rows)
    X = znormed(300, 64, seed=23)
    q = znormed(1, 64, seed=24)[0]
    for leaf_size, k in ((16, 4), (4, 10)):  # k within one leaf, k over several
        got = build_sofa(X, leaf_size=leaf_size).knn(q, k=k)
        assert [i for _, i in got] == [i for _, i in brute_knn(X, q, k)]


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("last_rows", [1, 512, 10**9])
def test_exact_for_any_last_chunk(name, builder, last_rows, monkeypatch):
    """Any switch to the final batch is exact: right after the seed, after
    doubling from 16 to 256 rows, or never (pure doubling). 301 rows leave
    the last leaf partial at both leaf sizes."""
    monkeypatch.setattr(tree, "_FIRST_CHUNK_ROWS", 16)
    monkeypatch.setattr(tree, "_LAST_CHUNK_ROWS", last_rows)
    X = znormed(301, 64, seed=33)
    Q = znormed(3, 64, seed=34)
    for leaf_size in (4, 16):
        idx = builder(X, leaf_size=leaf_size)
        for k in (1, 10):
            for q in Q:
                got, exp = idx.knn(q, k=k), brute_knn(X, q, k)
                assert [i for _, i in got] == [i for _, i in exp]
                np.testing.assert_allclose([d for d, _ in got], [d for d, _ in exp],
                                           rtol=1e-12)


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


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_default_leaf_size_exact_on_lendb(name, builder):
    X = make_dataset("LenDB", scale=0.3).astype(np.float32)
    Q = make_queries("LenDB", 8, scale=0.3).astype(np.float32)
    idx = builder(X)
    assert idx.leaf_size == tree.LEAF_ROWS
    for k in (1, 10):
        for q in Q:
            got, exp = idx.knn(q, k=k), brute_knn(X, q, k)
            assert [i for _, i in got] == [i for _, i in exp]
            np.testing.assert_allclose([d for d, _ in got], [d for d, _ in exp], rtol=1e-12)


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
    np.testing.assert_array_equal(got.coeffs, exp.coeffs)
    np.testing.assert_array_equal(got.imag, exp.imag)
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


def _record_kernel_calls(monkeypatch) -> dict:
    """Wrap the tree's per-series kernels; return their recorded calls."""
    calls = {"ed2_batch": [], "batch_mindist2": []}

    def recording(name):
        fn = getattr(tree, name)

        def wrapper(*args, **kwargs):
            calls[name].append(kwargs)
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(tree, name, recording(name))
    return calls


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("leaf_size", [1, 4, 128])
@pytest.mark.parametrize("k", [1, 10])
def test_only_the_seed_batch_is_verified_without_a_bound(name, builder, leaf_size, k,
                                                         monkeypatch):
    """The seed batch holds at least k rows, so every later ED call is bounded."""
    X = make_dataset("LenDB", scale=0.1).astype(np.float32)
    Q = make_queries("LenDB", 3, scale=0.1).astype(np.float32)
    idx = builder(X, leaf_size=leaf_size)
    calls = _record_kernel_calls(monkeypatch)
    for q in Q:
        calls["ed2_batch"].clear()
        got = idx.knn(q, k=k)
        assert [i for _, i in got] == [i for _, i in brute_knn(X, q, k)]
        unbounded = [c for c in calls["ed2_batch"] if c["bound2"] == np.inf]
        assert len(unbounded) == 1
        assert len(unbounded[0]["rows"]) >= min(k, len(X))
        assert calls["ed2_batch"][0] is unbounded[0]


def test_batches_double_when_every_leaf_is_visited(monkeypatch):
    """A MESSI query that visits every leaf drains the queue in five
    batches: the seed, 512, 1,024 and 2,048 rows, then every leaf left.
    With no batch split across the pool, each batch is one LBD kernel call."""
    X = znormed(16_384, 64, seed=31).astype(np.float32)
    Q = znormed(3, 64, seed=32).astype(np.float32)
    idx = build_messi(X, leaf_size=32)
    monkeypatch.setattr(tree, "BLOCK_ROWS", len(X))
    calls = _record_kernel_calls(monkeypatch)
    for q in Q:
        calls["batch_mindist2"].clear()
        st = SearchStats()
        got = idx.knn(q, k=10, stats=st)
        assert [i for _, i in got] == [i for _, i in brute_knn(X, q, 10)]
        assert st.leaves_visited == st.n_leaves
        assert len(calls["batch_mindist2"]) == 5


def _knn_with_stats(idx, Q, k) -> list:
    """Answers and every ``SearchStats`` field of ``idx.knn`` per query."""
    out = []
    for q in Q:
        st = SearchStats()
        out.append((idx.knn(q, k=k, stats=st), vars(st)))
    return out


def _counting_pool(monkeypatch) -> list:
    """Make the tree start its pools through a stub; return the pools started."""
    started = []

    class Pool(tree.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(tree, "ThreadPoolExecutor", Pool)
    return started


def _log_lbd_calls(monkeypatch, idx) -> list:
    """Log every per-series LBD call of ``idx.knn`` as ``(pooled, rows)``:
    whether it ran on a pool thread, and the leaf-order positions of the
    rows it filtered, found from their words. A batch handed to the pool
    logs ``None`` before its calls."""
    where = {w.tobytes(): r for r, w in enumerate(idx.words_perm)}
    assert len(where) == len(idx.words_perm)  # every word names one row
    log, lbd = [], tree.batch_mindist2

    def recording(qvals, words, *args, **kwargs):
        pooled = threading.current_thread() is not threading.main_thread()
        log.append((pooled, np.array([where[w.tobytes()] for w in words])))
        return lbd(qvals, words, *args, **kwargs)

    class Pool(tree.ThreadPoolExecutor):
        def map(self, *args, **kwargs):
            log.append(None)
            return super().map(*args, **kwargs)

    monkeypatch.setattr(tree, "batch_mindist2", recording)
    monkeypatch.setattr(tree, "ThreadPoolExecutor", Pool)
    return log


def _batches(log: list, idx) -> list[tuple[bool, list[np.ndarray]]]:
    """Split a ``_log_lbd_calls`` log into batches ``(pooled, runs)``, each
    run the ids of the whole leaves one LBD call filtered, leaf after leaf."""
    n_rows, size = len(idx.X), idx.leaf_size
    batches = []
    for entry in log:
        if entry is None:
            batches.append((True, []))
            continue
        pooled, rows = entry
        lids = rows[rows % size == 0] // size
        whole = (lids[:, None] * size + np.arange(size)).ravel()
        np.testing.assert_array_equal(rows, whole[whole < n_rows])
        if pooled:
            assert batches and batches[-1][0]  # after its batch's pool.map
            batches[-1][1].append(lids)
        else:
            batches.append((False, [lids]))
    return batches


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("block_rows", [1, 7, 64])
@pytest.mark.parametrize("k", [1, 10])
def test_blocked_drain_equals_serial_drain(name, builder, block_rows, k, monkeypatch):
    """A batch verified in runs of leaves on the query's pool gives the
    answers and counters of one whole-batch pass. Rows repeated five times
    tie exactly, so the order among copies falls to the id in both; with
    three rows more, the last leaf is partial."""
    base = np.repeat(znormed(200, 64, seed=42), 5, axis=0)
    pools = _counting_pool(monkeypatch)
    for X in (base, np.concatenate([base, base[:3]])):
        rng = np.random.default_rng(41)
        ids = rng.permutation(len(X))
        idx = builder(X, ids=ids, leaf_size=8)
        Q = np.concatenate([base[::125],
                            base[::125] + rng.normal(0, 0.3, (8, 64)).astype(np.float32)])
        monkeypatch.setattr(tree, "BLOCK_ROWS", len(X))
        serial = _knn_with_stats(idx, Q, k)
        monkeypatch.setattr(tree, "BLOCK_ROWS", block_rows)
        started = len(pools)
        blocked = _knn_with_stats(idx, Q, k)
        assert len(pools) > started
        assert blocked == serial
        for q, (got, _) in zip(Q, blocked):
            exp = brute_knn(X, q, k, ids=ids)
            assert [i for _, i in got] == [i for _, i in exp]
            np.testing.assert_allclose([d for d, _ in got], [d for d, _ in exp], rtol=1e-12)


def test_one_pool_per_query_and_no_thread_outlives_it(monkeypatch):
    """A query whose batches go to the pool starts one pool, however many
    batches it sends there, and shuts it down before returning. Each
    pooled batch makes one LBD call per core, or per leaf when it has
    fewer leaves than cores."""
    X = znormed(2_000, 64, seed=43)
    Q = znormed(3, 64, seed=44)
    idx = build_messi(X, leaf_size=16)
    monkeypatch.setattr(tree, "BLOCK_ROWS", 64)
    pools = _counting_pool(monkeypatch)
    log = _log_lbd_calls(monkeypatch, idx)
    before = threading.active_count()
    for n, q in enumerate(Q, 1):
        log.clear()
        st = SearchStats()
        got = idx.knn(q, k=10, stats=st)
        assert [i for _, i in got] == [i for _, i in brute_knn(X, q, 10)]
        assert len(pools) == n
        assert threading.active_count() == before
        assert st.leaves_visited == st.n_leaves
        pooled = [runs for on_pool, runs in _batches(log, idx) if on_pool]
        assert len(pooled) == 3  # 512 and 1,024 rows, then the rest
        for runs in pooled:
            leaves = sum(len(run) for run in runs)
            assert len(runs) == min(os.cpu_count(), leaves)


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("k", [1, 10])
def test_pooled_runs_are_whole_leaves_in_queue_order(name, builder, k, monkeypatch):
    """Every LBD call of a pooled batch filters a run of whole leaves, the
    runs differ by at most one leaf, and together they are the batch, so
    the batches in order are the visited head of the leaf queue. The last
    of 5,003 rows' leaves is partial."""
    X = znormed(5_003, 64, seed=49)
    Q = znormed(3, 64, seed=50)
    idx = builder(X, leaf_size=16)
    monkeypatch.setattr(tree, "BLOCK_ROWS", 64)
    log = _log_lbd_calls(monkeypatch, idx)
    s = idx.summary
    for q in Q:
        log.clear()
        st = SearchStats()
        got = idx.knn(q, k=k, stats=st)
        assert [i for _, i in got] == [i for _, i in brute_knn(X, q, k)]
        qv = s.approx(np.asarray(q, np.float64)[None, :])[0]
        box = batch_interval_mindist2(qv, idx.leaf_lo, idx.leaf_hi, s.edges, s.weights,
                                      table=mindist2_table(qv, s.edges))
        order = np.argsort(box, kind="stable")
        place = np.argsort(order)  # queue place of each leaf
        drained, n_pooled = [], 0
        for pooled, runs in _batches(log, idx):
            if pooled:
                n_pooled += 1
                assert len(runs) == min(os.cpu_count(), sum(len(run) for run in runs))
                assert np.ptp([len(run) for run in runs]) <= 1
                runs = sorted(runs, key=lambda run: place[run[0]])
            drained += runs
        assert n_pooled
        np.testing.assert_array_equal(np.concatenate(drained), order[:st.leaves_visited])


def test_a_failing_block_reaches_the_caller_and_stops_the_pool(monkeypatch):
    """An error raised by a run's kernel on a pool thread is raised by
    ``knn``, and the pool's threads are gone when it is."""
    X = znormed(2_000, 64, seed=45)
    q = znormed(1, 64, seed=46)[0]
    idx = build_messi(X, leaf_size=16)
    monkeypatch.setattr(tree, "BLOCK_ROWS", 64)
    pools = _counting_pool(monkeypatch)
    ed2_batch, raised_on = tree.ed2_batch, []

    def failing(*args, **kwargs):
        if kwargs["bound2"] == np.inf:  # the seed batch, verified inline
            return ed2_batch(*args, **kwargs)
        raised_on.append(threading.current_thread())
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(tree, "ed2_batch", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="kernel failed"):
        idx.knn(q, k=10)
    assert len(pools) == 1
    assert raised_on and threading.main_thread() not in raised_on
    assert threading.active_count() == before


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_batches_of_one_block_start_no_pool(name, builder, monkeypatch):
    """Every batch of a collection of ``BLOCK_ROWS`` rows is verified
    inline, so no query on it starts a pool."""
    X = znormed(tree.BLOCK_ROWS, 64, seed=47)
    Q = znormed(2, 64, seed=48)
    idx = builder(X, leaf_size=32)
    pools = _counting_pool(monkeypatch)
    for q in Q:
        assert [i for _, i in idx.knn(q, k=10)] == [i for _, i in brute_knn(X, q, 10)]
    assert not pools
