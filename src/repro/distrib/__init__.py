"""Spark layer: the paper's multi-core parallelism mapped to partitions.

MESSI/SOFA parallelize one in-memory index across threads; here each
Spark partition owns an independent per-partition engine (SOFA/MESSI
tree, UCR scan, or flat GEMM scan) built inside the executor, and exact
global k-NN = per-partition exact top-k + a driver merge of those rows.
MCB's 1 % sampling step runs as ``DataFrame.sample`` (``mcb``), and the
GEMINI lower-bound filter is also exposed as a pure DataFrame plan of
Spark SQL lambda expressions over the word and series arrays with a
per-query table literal (``transform``) so the DuckDB oracle can check it.
Every Python stage is a ``mapInArrow`` that reads the series column as
Arrow ``list<double>`` through ``dataset`` (``to_matrix``/``read_rows``).
"""
from repro.distrib.dataset import series_df, to_matrix
from repro.distrib.mcb import fit_sfa_spark
from repro.distrib.search import exact_knn
from repro.distrib.transform import with_words, gemini_knn_sql

__all__ = ["series_df", "to_matrix", "fit_sfa_spark", "exact_knn",
           "with_words", "gemini_knn_sql"]
