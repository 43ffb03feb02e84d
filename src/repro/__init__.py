"""SOFA reproduction package (see DESIGN.md).

BLAS thread pools are pinned to one thread per process *before* NumPy
loads anywhere in this package: the Spark layer runs one Python worker
per partition (up to 16 per machine), and an unpinned OpenBLAS would
oversubscribe 16x16 threads. This mirrors the paper's setup of one OMP
thread per core (they size FAISS's thread pool to the core count; our
"cores" are partitions, each a single-threaded worker). The threads that
``SymbolicSummary.words`` starts for a large batch run NumPy FFT and
``reduceat`` work, not BLAS, so the pin still holds; a Spark partition
at benchmark scale is one block and starts none. Override via
environment.
"""
import os as _os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
