"""Symbolic leaf indexes for exact similarity search.

``tree.TreeIndex`` (a flat z-order leaf layout) is generic over a
``SymbolicSummary``; ``messi`` and ``sofa`` instantiate it with iSAX and
SFA respectively.
"""
from repro.index.tree import TreeIndex, SearchStats
from repro.index.messi import build_messi
from repro.index.sofa import build_sofa

__all__ = ["TreeIndex", "SearchStats", "build_messi", "build_sofa"]
