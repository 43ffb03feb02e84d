"""Baseline exact-search engines the paper compares against.

- ``ucr_scan``: UCR Suite-P analog — early-abandoning sequential scan.
- ``flat_l2``: FAISS IndexFlatL2 analog — batched GEMM shortlist, direct re-measure.

Both are per-partition engines; `repro.distrib.search` parallelizes
them across Spark partitions exactly like the tree indexes.
"""
from repro.baselines.ucr_scan import ucr_knn
from repro.baselines.flat_l2 import flat_knn

__all__ = ["ucr_knn", "flat_knn"]
