"""Summarization techniques (Def. 3) with Euclidean lower bounds (Def. 4).

- ``paa``: Piecewise Aggregate Approximation (the numeric core of iSAX).
- ``sax``: iSAX — PAA + fixed N(0,1) equal-depth quantization.
- ``sfa``: SFA — scaled Fourier components with the Rafiei-Mendelzon
  weights + variance feature selection + learned MCB bins.
- ``simd``: batched mindist kernels, one per-query table gathered over words
  and over leaf symbol boxes (Algorithm 3 analog).

Both symbolic summaries share the ``common.SymbolicSummary`` contract:
``approx`` (numeric reduced representation), ``words`` (uint8 symbols at
alphabet 256 max), per-position ``edges`` (hierarchical bin boundaries)
and ``weights`` (per-position multiplier in the squared lower bound).
"""
from repro.summaries.sax import SAXSummary
from repro.summaries.sfa import SFASummary

__all__ = ["SAXSummary", "SFASummary"]
