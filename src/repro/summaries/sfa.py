"""SFA — the learned symbolic representation (paper Sections IV-E/IV-F).

``SFASummary.fit`` is Algorithm 1 (MCB): sample the collection, DFT it,
rank scalar Fourier components (real/imag separately) by variance within
the first ``N_CANDIDATE_COEFFS`` complex coefficients, keep the top
``l``, and learn per-component quantization edges by equi-width
(default, the paper's best variant) or equi-depth binning of the sample
distribution. ``approx``/``words`` implement Algorithm 2 for batches.
The sample is ``SAMPLE_FRAC`` of the collection, at least ``MIN_SAMPLE``
rows; ``repro.index.sofa`` and ``repro.distrib.mcb`` both draw it so.

The DC component (k=0) is excluded: for z-normalized series it is
identically 0 and the paper omits it from the bound. The squared lower
bound is ``sum_j weights_j * mindist_j^2 <= ed2`` with weights from
``repro.summaries.dft.component_space`` (2, or 1 at the Nyquist real).
"""
import numpy as np

from repro.summaries.common import SymbolicSummary
from repro.summaries.dft import ComponentSpace, component_space, dft_components

BINNINGS = ("equi_width", "equi_depth")
#: candidates are the first 16 complex coefficients (32 scalar values), the
#: paper's setup
N_CANDIDATE_COEFFS = 16
#: MCB learns from a 1 % sample of the collection (paper Section IV-G) ...
SAMPLE_FRAC = 0.01
#: ... of at least 64 rows: below that, bin edges get too noisy to be meaningful
MIN_SAMPLE = 64


def _learn_edges(col: np.ndarray, alphabet: int, binning: str) -> np.ndarray:
    """Interior edges (alphabet-1,) for one component's sample values."""
    if binning == "equi_width":
        lo, hi = float(col.min()), float(col.max())
        if hi - lo < 1e-12:  # degenerate component: all mass in one bin
            hi = lo + 1e-12
        return np.linspace(lo, hi, alphabet + 1)[1:-1]
    if binning == "equi_depth":
        return np.quantile(col, np.arange(1, alphabet) / alphabet)
    raise ValueError(f"binning must be one of {BINNINGS}, got {binning!r}")


class SFASummary(SymbolicSummary):
    """SFA summary over a fixed component selection and learned bins."""

    def __init__(self, n: int, sel: np.ndarray, space: ComponentSpace,
                 edges: np.ndarray, alphabet: int):
        self.n = int(n)
        self.space = space
        self.sel = np.asarray(sel, dtype=np.int64)  # indices into space components
        # coefficient index and imaginary-part flag of each selected component
        self._coeffs = np.array([space.labels[s][0] for s in self.sel], dtype=np.int64)
        self._imag = np.array([space.labels[s][1] == 1 for s in self.sel], dtype=bool)
        super().__init__(l=len(self.sel), alphabet=alphabet, edges=edges,
                         weights=space.weights[self.sel])

    # -- Algorithm 1: MCB --------------------------------------------------
    @classmethod
    def fit(cls, sample: np.ndarray, l: int = 16, alphabet: int = 256,
            binning: str = "equi_width") -> "SFASummary":
        """Learn selection + bins from a (z-normalized) sample ``(N, n)``.

        Candidates are the real and imaginary parts of complex coefficients
        1..``N_CANDIDATE_COEFFS``; DC is always excluded.
        """
        sample = np.atleast_2d(np.asarray(sample, dtype=np.float64))
        n = sample.shape[1]
        space = component_space(n)
        comps = dft_components(sample, space)  # (N, m)
        cand = np.array([i for i, (k, _) in enumerate(space.labels)
                         if 1 <= k <= N_CANDIDATE_COEFFS], dtype=np.int64)
        if len(cand) < l:
            raise ValueError(f"only {len(cand)} candidate components for l={l}; "
                             "shorten the word")
        var = comps[:, cand].var(axis=0)
        # descending variance; stable tie-break on component order so the
        # fit is deterministic across platforms
        sel = cand[np.lexsort((cand, -var))][:l]
        interior = np.stack([_learn_edges(comps[:, s], alphabet, binning) for s in sel])
        edges = np.concatenate(
            [np.full((l, 1), -np.inf), interior, np.full((l, 1), np.inf)], axis=1)
        return cls(n=n, sel=sel, space=space, edges=edges, alphabet=alphabet)

    # -- Algorithm 2: transform ---------------------------------------------
    def approx(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n:
            raise ValueError(f"series length {x.shape[1]} != {self.n}")
        spec = np.fft.rfft(x, axis=1)[:, self._coeffs] / np.sqrt(self.n)
        return np.where(self._imag, spec.imag, spec.real)

    @property
    def mean_selected_coeff_index(self) -> float:
        """Mean scalar component index of the selection (paper Fig. 13's
        x-axis): high values mean SFA kept high-frequency information."""
        return float(np.mean(self.sel))
