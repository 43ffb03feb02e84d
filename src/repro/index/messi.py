"""MESSI baseline = z-order leaf index + iSAX summarization (paper IV-A..D).

Paper defaults: word length 16, alphabet 256, leaf size 20000. The paper's
leaves over 100M+ series make thousands of leaves; here every tree uses
``LEAF_ROWS`` = 64 rows per leaf at every collection size, the fastest
size measured from 3,000 to 240,000 rows (see DESIGN.md).
"""
import numpy as np

from repro.index.tree import LEAF_ROWS, TreeIndex
from repro.summaries.sax import SAXSummary


def build_messi(X: np.ndarray, ids: np.ndarray | None = None, *,
                l: int = 16, alphabet: int = 256, leaf_size: int = LEAF_ROWS) -> TreeIndex:
    """Build a MESSI index over z-normalized series matrix ``X`` (N, n)."""
    X = np.atleast_2d(X)
    summary = SAXSummary(n=X.shape[1], l=l, alphabet=alphabet)
    return TreeIndex(summary, X, ids=ids, leaf_size=leaf_size)
