"""SFA — the learned symbolic representation (paper Sections IV-E/IV-F).

``SFASummary.fit`` is Algorithm 1 (MCB): sample the collection, DFT it,
rank scalar Fourier components (real/imag separately) by variance within
the first ``N_CANDIDATE_COEFFS`` complex coefficients, keep the top
``l``, and learn per-component quantization edges by equi-width
(default, the paper's best variant) or equi-depth binning of the sample
distribution. ``approx``/``words`` implement Algorithm 2 for batches.
The sample is ``SAMPLE_FRAC`` of the collection, at least ``MIN_SAMPLE``
rows; ``repro.index.sofa`` and ``repro.distrib.mcb`` both draw it so.

A component is the real or imaginary part of coefficient ``k`` of
``rfft(x) / sqrt(n)``, scaled so that Parseval's theorem reads

    ed2(x, y) = sum_{k=0}^{n-1} |C_k(x) - C_k(y)|^2

For real series the spectrum is conjugate-symmetric, so restricting to
k in [0, n/2] and unrolling real/imag parts gives per-component weights:
2 for every real/imag part, except 1 for the DC and the Nyquist
(k = n/2, n even) real parts, whose imaginary parts are zero: the
Rafiei-Mendelzon bound. Dropping any subset of components only shrinks
the sum, so the selected components with these weights lower-bound the
squared ED (paper Eq. 1): ``sum_j weights_j * mindist_j^2 <= ed2``. The
DC component (k = 0) is never a candidate: for z-normalized series it is
identically 0 and the paper omits it from the bound.
"""
import numpy as np

from repro.core.distance import check_series
from repro.summaries.common import SymbolicSummary

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


def _components(x: np.ndarray, coeffs: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Scaled components ``(N, len(coeffs))`` of a float64 batch ``(N, n)``:
    the imaginary part of coefficient ``coeffs[j]`` where ``imag[j]``, else
    its real part."""
    spec = np.fft.rfft(x, axis=1)[:, coeffs] / np.sqrt(x.shape[1])
    return np.where(imag, spec.imag, spec.real)


class SFASummary(SymbolicSummary):
    """SFA summary over a fixed component selection and learned bins.

    Component ``j`` is the imaginary part of coefficient ``coeffs[j]`` if
    ``imag[j]``, else its real part.
    """

    def __init__(self, n: int, coeffs: np.ndarray, imag: np.ndarray,
                 edges: np.ndarray, alphabet: int):
        self.n = int(n)
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        self.imag = np.asarray(imag, dtype=bool)
        if self.imag.shape != self.coeffs.shape:
            raise ValueError(f"imag shape {self.imag.shape} != coeffs shape {self.coeffs.shape}")
        super().__init__(l=len(self.coeffs), alphabet=alphabet, edges=edges,
                         weights=np.where(2 * self.coeffs == self.n, 1.0, 2.0))

    # -- Algorithm 1: MCB --------------------------------------------------
    @classmethod
    def fit(cls, sample: np.ndarray, l: int = 16, alphabet: int = 256,
            binning: str = "equi_width") -> "SFASummary":
        """Learn selection + bins from a (z-normalized) sample ``(N, n)``.

        Candidates are the real and imaginary parts of complex coefficients
        1..``N_CANDIDATE_COEFFS``; DC is always excluded. Raises
        ``ValueError`` if a value of ``sample`` is NaN or infinite.
        """
        sample = np.atleast_2d(np.asarray(sample, dtype=np.float64))
        check_series(sample, "sample")
        n = sample.shape[1]
        # real part, then imaginary part, of each coefficient; Nyquist's
        # imaginary part is zero
        coeffs = np.repeat(np.arange(1, min(N_CANDIDATE_COEFFS, n // 2) + 1), 2)
        imag = np.arange(len(coeffs)) % 2 == 1
        keep = ~(imag & (2 * coeffs == n))
        coeffs, imag = coeffs[keep], imag[keep]
        if len(coeffs) < l:
            raise ValueError(f"only {len(coeffs)} candidate components for l={l}; "
                             "shorten the word")
        comps = _components(sample, coeffs, imag)
        var = comps.var(axis=0)
        # descending variance; stable tie-break on candidate order so the
        # fit is deterministic across platforms
        sel = np.lexsort((np.arange(len(var)), -var))[:l]
        interior = np.stack([_learn_edges(comps[:, s], alphabet, binning) for s in sel])
        edges = np.concatenate(
            [np.full((l, 1), -np.inf), interior, np.full((l, 1), np.inf)], axis=1)
        return cls(n=n, coeffs=coeffs[sel], imag=imag[sel], edges=edges, alphabet=alphabet)

    # -- Algorithm 2: transform ---------------------------------------------
    def approx(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n:
            raise ValueError(f"series length {x.shape[1]} != {self.n}")
        return _components(x, self.coeffs, self.imag)
