"""SOFA = z-order leaf index + SFA summarization (paper Section IV-G).

Workflow (paper Figure 5): sample 1 % of the collection, learn the SFA
quantization via MCB (variance-selected Fourier components, equi-width
bins), transform and index every series, answer queries exactly via
GEMINI with the SFA lower bound. A pre-fit ``SFASummary`` can be
supplied so that the distributed path learns MCB once (on the driver,
from a Spark sample) and reuses it for every partition's sub-index.
"""
import numpy as np

from repro.index.tree import LEAF_ROWS, TreeIndex
from repro.summaries.sfa import MIN_SAMPLE, SAMPLE_FRAC, SFASummary


def build_sofa(X: np.ndarray, ids: np.ndarray | None = None, *,
               summary: SFASummary | None = None,
               l: int = 16, alphabet: int = 256, leaf_size: int = LEAF_ROWS,
               seed: int = 0) -> TreeIndex:
    """Build a SOFA index over z-normalized series matrix ``X`` (N, n).

    If ``summary`` is None, MCB is learned here from a ``SAMPLE_FRAC``
    sample of ``X`` (at least ``MIN_SAMPLE`` rows, or all of X if smaller),
    drawn without replacement by ``np.random.default_rng(seed)``.
    """
    X = np.atleast_2d(X)
    if summary is None:
        rng = np.random.default_rng(seed)
        n_sample = min(len(X), max(MIN_SAMPLE, int(round(SAMPLE_FRAC * len(X)))))
        rows = rng.choice(len(X), size=n_sample, replace=False)
        summary = SFASummary.fit(X[rows], l=l, alphabet=alphabet)
    return TreeIndex(summary, X, ids=ids, leaf_size=leaf_size)
