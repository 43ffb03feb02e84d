"""MESSI baseline = z-order leaf index + iSAX summarization (paper IV-A..D).

Paper defaults: word length 16, alphabet 256, leaf size 20000 (we scale
leaf size down with dataset size; see DESIGN.md).
"""
import numpy as np

from repro.index.tree import TreeIndex
from repro.summaries.sax import SAXSummary


def build_messi(X: np.ndarray, ids: np.ndarray | None = None, *,
                l: int = 16, alphabet: int = 256, leaf_size: int = 128) -> TreeIndex:
    """Build a MESSI index over z-normalized series matrix ``X`` (N, n)."""
    X = np.atleast_2d(X)
    summary = SAXSummary(n=X.shape[1], l=l, alphabet=alphabet)
    return TreeIndex(summary, X, ids=ids, leaf_size=leaf_size)
