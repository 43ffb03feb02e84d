"""The word quantizer shared by iSAX and SFA (``SymbolicSummary``): the
threaded row-block pass of ``words``, on ``Columns`` summaries that bin
their input as given and on the two real summaries, against the
reference ``words_ref`` on and around every edge, the
rejection of non-finite input and of unusable edges, blocked words
against one whole-batch pass, and a summary that the word pass leaves as
it found it."""
import copy
import threading

import numpy as np
import pytest

from repro.summaries.common import BLOCK_ROWS, SymbolicSummary
from repro.summaries.sax import SAXSummary, sax_breakpoints
from repro.summaries.sfa import SFASummary, _learn_edges
from tests.helpers import Columns, columns_of, words_ref, znormed

MAX = np.finfo(np.float64).max


def summary_of(rows) -> Columns:
    """A summary that bins its input with one position per row of interior
    edges."""
    rows = np.asarray(rows, dtype=np.float64)
    l, a1 = rows.shape
    edges = np.concatenate([np.full((l, 1), -np.inf), rows, np.full((l, 1), np.inf)], axis=1)
    return Columns(l=l, alphabet=a1 + 1, edges=edges, weights=np.ones(l))


def probes(inner, rng) -> np.ndarray:
    """Every interior edge and 1 ulp either side of it, values beyond the
    first and last edge, and random values across the edges' span."""
    lo, hi = inner[0], inner[-1]
    span = max(hi - lo, 1.0)
    return np.concatenate([
        inner, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf),
        [lo - span, hi + span, -1e300, 1e300, -MAX, MAX, 0.0, -0.0],
        rng.uniform(lo - 0.1 * span, hi + 0.1 * span, 200),
    ])


def edge_rows(alphabet: int) -> dict[str, np.ndarray]:
    """Interior edge rows of every kind the summaries learn, plus the
    degenerate ones: all edges equal, and many duplicates off the grid."""
    g = np.random.default_rng(alphabet)
    atom = np.where(g.random(500) < 0.6, 0.3001, g.standard_normal(500))
    return {
        "sax": sax_breakpoints(alphabet),
        "sfa_equi_width": _learn_edges(g.standard_normal(500), alphabet, "equi_width"),
        "sfa_equi_depth": _learn_edges(g.standard_normal(500), alphabet, "equi_depth"),
        "sfa_equi_depth_duplicates": _learn_edges(atom, alphabet, "equi_depth"),
        "sfa_degenerate": _learn_edges(np.full(50, 0.7), alphabet, "equi_width"),
        "sfa_degenerate_large": _learn_edges(np.full(50, 1e3), alphabet, "equi_width"),
        "all_equal": np.full(alphabet - 1, -0.25),
    }


@pytest.mark.parametrize("alphabet", [2, 4, 256])
@pytest.mark.parametrize("kind", list(edge_rows(4)))
def test_words_match_per_position_searchsorted(alphabet, kind):
    inner = edge_rows(alphabet)[kind]
    s = summary_of([inner, inner * 0.5, inner - 3.0])
    g = np.random.default_rng(7)
    a = np.stack([probes(row, g) for row in s.edges[:, 1:-1]], axis=1)
    words = s.words(a)
    np.testing.assert_array_equal(words, words_ref(a, s.edges))
    assert words.dtype == np.uint8 and words.flags.c_contiguous


@pytest.mark.parametrize("bad", ["decreasing", "nan", "inf"])
def test_summary_rejects_unusable_edges(bad):
    inner = sax_breakpoints(8)
    if bad == "decreasing":
        inner[[2, 3]] = inner[[3, 2]]
    else:
        inner[3] = np.nan if bad == "nan" else np.inf
    with pytest.raises(ValueError, match="interior edges"):
        summary_of([inner, sax_breakpoints(8)])


@pytest.mark.parametrize("alphabet", [4, 256])
def test_blocked_words_match_reference_on_every_edge(alphabet):
    """Every full block of ``words`` holds every interior edge and 1 ulp
    either side of it, at a different offset in each block."""
    rows = edge_rows(alphabet)
    inner = np.stack([rows["sax"], rows["sfa_equi_depth_duplicates"], rows["all_equal"]])
    s = summary_of(inner)
    vals = np.concatenate([inner, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf)],
                          axis=1)
    X = np.concatenate([np.resize(np.roll(vals, 37 * b, axis=1), (3, BLOCK_ROWS)).T
                        for b in range(3)])[:2 * BLOCK_ROWS + 1]
    words = s.words(X)
    for lo in range(0, len(X), BLOCK_ROWS):
        np.testing.assert_array_equal(words[lo:lo + BLOCK_ROWS],
                                      words_ref(X[lo:lo + BLOCK_ROWS], s.edges))


@pytest.mark.parametrize("binning", ["equi_width", "equi_depth"])
@pytest.mark.parametrize("alphabet", [2, 4, 256])
def test_fitted_sfa_words_match_reference(binning, alphabet):
    X = znormed(400, 64, seed=alphabet)
    s = SFASummary.fit(X[:100], l=8, alphabet=alphabet, binning=binning)
    a = s.approx(X)
    np.testing.assert_array_equal(s.words(X), words_ref(a, s.edges))


@pytest.mark.parametrize("alphabet", [2, 4, 256])
def test_sax_words_match_reference(alphabet):
    X = znormed(400, 96, seed=alphabet)
    s = SAXSummary(96, l=16, alphabet=alphabet)
    np.testing.assert_array_equal(s.words(X), words_ref(s.approx(X), s.edges))


@pytest.mark.parametrize("rows", [0, 1])
def test_words_of_tiny_batches(rows):
    s = SAXSummary(32, l=4, alphabet=8)
    a = np.random.default_rng(3).standard_normal((rows, 4))
    words = columns_of(s).words(a)
    assert words.shape == (rows, 4) and words.dtype == np.uint8
    assert words.flags.c_contiguous
    np.testing.assert_array_equal(words, words_ref(a, s.edges))


def test_words_of_one_series():
    s = SAXSummary(32, l=4, alphabet=8)
    x = znormed(1, 32, seed=3)
    np.testing.assert_array_equal(s.words(x[0]), s.words(x))
    np.testing.assert_array_equal(columns_of(s).words(s.approx(x)[0]), s.words(x))


def test_words_c_contiguous_for_fortran_input():
    X = znormed(300, 64, seed=4)
    s = SFASummary.fit(X, l=8, alphabet=16)
    a = np.asfortranarray(s.approx(X))
    words = columns_of(s).words(a)
    assert words.flags.c_contiguous
    np.testing.assert_array_equal(words, words_ref(a, s.edges))


def test_words_reject_wrong_approx_width():
    s = columns_of(SAXSummary(32, l=4, alphabet=8))
    with pytest.raises(ValueError, match="columns"):
        s.words(np.zeros((3, 5)))


@pytest.mark.parametrize("summary", ["sax", "sfa"])
@pytest.mark.parametrize("bad", ["one nan", "all inf", "one -inf"])
def test_words_reject_non_finite(summary, bad):
    X = znormed(20, 32, seed=5).astype(np.float64)
    s = SAXSummary(32, 4, 8) if summary == "sax" else SFASummary.fit(X, l=4, alphabet=8)
    if bad == "one nan":
        X[3, 7] = np.nan
    elif bad == "all inf":
        X[3] = np.inf
    else:
        X[3, 0] = -np.inf
    with pytest.raises(ValueError, match="series values must be finite"):
        s.words(X)
    with pytest.raises(ValueError, match="series values must be finite"):
        s.words(X[3])
    a = s.approx(X[:3])
    a[1, 2] = {"one nan": np.nan, "all inf": np.inf, "one -inf": -np.inf}[bad]
    s.approx = lambda x: a  # a non-finite approx of finite series
    with pytest.raises(ValueError, match="approx values must be finite"):
        s.words(X[:3])


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("summary", ["sax", "sfa"])
@pytest.mark.parametrize("sign", [1, -1])
def test_words_reject_a_non_finite_approx_of_a_finite_series(summary, sign):
    """A finite series can have a non-finite approx: the float64 PAA sum
    and the DFT of the largest float64 values overflow."""
    X = znormed(20, 32, seed=5).astype(np.float64)
    s = SAXSummary(32, 4, 8) if summary == "sax" else SFASummary.fit(X, l=4, alphabet=8)
    with pytest.raises(ValueError, match="approx values must be finite"):
        s.words(np.full((1, 32), sign * MAX))


def test_words_reject_a_value_the_approx_does_not_read():
    """``words`` checks the series itself, not only its approx values."""
    class Tail(SymbolicSummary):
        def approx(self, x):
            return np.asarray(x, dtype=np.float64)[:, 1:]

    s = Tail(l=4, alphabet=8, edges=SAXSummary(32, 4, 8).edges, weights=np.ones(4))
    x = np.zeros((3, 5))
    x[1, 0] = np.nan
    np.testing.assert_array_equal(columns_of(s).words(s.approx(x)), np.full((3, 4), 4))
    with pytest.raises(ValueError, match="finite"):
        s.words(x)


def _blocked_summaries() -> dict[str, SymbolicSummary]:
    """Summaries of length-64 series, the length the blocked tests use."""
    X = znormed(200, 64, seed=8)
    return {"sfa": SFASummary.fit(X, l=8, alphabet=256), "sax": SAXSummary(64, l=8, alphabet=256)}


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  3 * BLOCK_ROWS + 7])
@pytest.mark.parametrize("kind", ["sfa-float32", "sfa-float64", "sax-float32"])
def test_blocked_words_equal_one_pass(kind, rows):
    """Words of a batch computed in row blocks on threads are bit-equal to
    one approx pass over the whole batch, binned by the reference."""
    name, dtype = kind.split("-")
    s = _blocked_summaries()[name]
    X = znormed(rows, 64, seed=rows).astype(dtype)
    words = s.words(X)
    assert words.dtype == np.uint8 and words.flags.c_contiguous
    np.testing.assert_array_equal(words, words_ref(s.approx(X), s.edges))


@pytest.mark.parametrize("summary", ["sfa", "sax"])
def test_blocked_words_reject_nan_in_last_block(summary):
    s = _blocked_summaries()[summary]
    X = znormed(3 * BLOCK_ROWS + 7, 64, seed=9)
    X[-1, -1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        s.words(X)


def test_blocked_words_leave_no_thread_running():
    s = _blocked_summaries()["sfa"]
    X = znormed(2 * BLOCK_ROWS + 1, 64, seed=10)
    before = threading.active_count()
    s.words(X)
    assert threading.active_count() == before


@pytest.mark.parametrize("summary", ["sfa", "sax"])
def test_blocked_words_of_one_series_and_fortran_input(summary):
    s = _blocked_summaries()[summary]
    X = znormed(2 * BLOCK_ROWS + 3, 64, seed=11)
    np.testing.assert_array_equal(s.words(X[5]), s.words(X[5:6]))
    words = s.words(np.asfortranarray(X))
    assert words.flags.c_contiguous
    np.testing.assert_array_equal(words, s.words(X))


@pytest.mark.parametrize("summary", ["sfa", "sax"])
def test_words_leave_the_summary_unchanged(summary):
    """The quantizer's guess table lives for one ``words`` call: the
    summary, which an index keeps and Spark ships, gains no attribute and
    no array of it changes."""
    s = _blocked_summaries()[summary]
    before = copy.deepcopy(vars(s))
    s.words(znormed(2 * BLOCK_ROWS + 1, 64, seed=12))
    after = vars(s)
    assert sorted(after) == sorted(before)
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            assert after[name].dtype == value.dtype and after[name].shape == value.shape
            assert after[name].tobytes() == value.tobytes(), name
        else:
            assert after[name] == value, name
