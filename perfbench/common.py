"""Shared pieces of the benchmark: metrics, the exactness gate, run metadata.

Every answer any path returns is judged against ``brute_topk``, the
benchmark's own float64 brute force, ordered by ``(dist, id)``. It uses no
kernel of the program under test.
"""
import heapq
import os
import platform
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

import numpy as np

from repro.datasets import make_dataset, make_queries

#: Distances may differ from the float64 brute force only by round-off;
#: engines compute them through the GEMM identity, the judge directly.
DIST_TOL = 1e-7
#: Largest k any call asks for; the judge computes this many neighbours.
KMAX = 10
#: Held-out queries each workload draws its query pool from.
QUERY_POPULATION = 4096


@dataclass
class Metric:
    value: float
    unit: str
    n: int  # samples behind the value


@dataclass
class Report:
    """What one workload run produced, before printing."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    params: dict = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


class SpeedProbe:
    """A fixed workload that uses no code of the program, timed between the
    measured calls, to tell how fast the host ran during the run.

    Other tenants of a shared host slow every computation of a process for
    tens of seconds at a time: on a shared 4-core box, ten runs of the same
    code split into a fast and a slow group 1.5x apart. The probe does the
    same kinds of work as the engines (a gather-and-blend pass like the LBD
    kernels, a float64 GEMV over a 16 MB matrix like ``ed2_batch``, and a
    Python heap loop like the per-leaf search), so ``rescale()`` can bring a
    run's timings to the host speed at which the probe takes ``NOMINAL_MS``.

    This holds only while nothing of the program runs during the probe. The
    in-process engines are single-threaded and idle between calls; a Spark
    session keeps its JVM and Python workers busy beside the probe, so there
    the rescaled timings are a diagnostic and not the program's own figures.
    """

    NOMINAL_MS = 5.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self.edges = np.sort(rng.standard_normal((16, 257)), axis=1)
        self.words = rng.integers(0, 256, (8192, 16))
        self.q = rng.standard_normal((1, 16))
        self.mat = rng.standard_normal((4096, 512))
        self.vec = rng.standard_normal(512)
        self.samples: list[float] = []

    def run(self, times: int = 1) -> None:
        cols = np.arange(16)[None, :]
        for _ in range(times):
            t = time.perf_counter()
            lo = self.edges[cols, self.words]
            hi = self.edges[cols, self.words + 1]
            d = np.where(self.q < lo, lo - self.q, 0.0) + np.where(self.q > hi, self.q - hi, 0.0)
            (d * d).sum(axis=1)
            self.mat @ self.vec
            heap: list[int] = []
            for i in range(2000):
                heapq.heappush(heap, (i * 7919) % 1009)
            self.samples.append(time.perf_counter() - t)

    def rescale(self, metrics: dict[str, Metric]) -> dict[str, Metric]:
        """Each timing of ``metrics`` at nominal host speed, as ``<name>.nominal``,
        plus the probe's own median."""
        probe_ms = median(self.samples) * 1e3
        factor = self.NOMINAL_MS / probe_ms
        out = {f"{name}.nominal": Metric(m.value * factor, m.unit, m.n)
               for name, m in metrics.items() if m.unit in ("ms", "s")}
        out["host.probe_ms"] = Metric(probe_ms, "ms", len(self.samples))
        return out


def workload_inputs(dataset: str, scale: float, n_pool: int, seed: int):
    """The collection and the query pool of one run.

    The collection is the dataset analog at the registry's own seed, the
    same in every run, so that runs differ by their queries and not by the
    index they search. ``seed`` draws the pool, in order, from a fixed
    population of held-out queries: the same seed gives the same inputs.
    """
    X = make_dataset(dataset, scale=scale)
    population = make_queries(dataset, QUERY_POPULATION, scale=scale)
    Q = population[np.random.default_rng(seed).choice(len(population), n_pool, replace=False)]
    return X, Q


def percentiles(name: str, values_ms, pcts) -> dict[str, Metric]:
    """``{name_pNN: Metric}`` for each percentile of ``values_ms``."""
    v = np.asarray(values_ms, dtype=np.float64)
    return {f"{name}_p{p}": Metric(float(np.percentile(v, p)), "ms", len(v)) for p in pcts}


def brute_topk(X: np.ndarray, Q: np.ndarray, k: int) -> list[list[tuple[float, int]]]:
    """Exact top-k of every row of ``Q`` over ``X``, ordered by (dist, id).

    A float64 GEMM shortlists candidates; every candidate within a slack far
    above the GEMM round-off of the k-th distance is re-measured directly,
    so the final ranking rests on direct float64 differences only.
    """
    X64 = np.asarray(X, dtype=np.float64)
    Q64 = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    kk = min(k, len(X64))
    xx = np.einsum("ij,ij->i", X64, X64)
    out = []
    for lo in range(0, len(Q64), 64):
        qb = Q64[lo:lo + 64]
        approx = xx[None, :] + np.einsum("ij,ij->i", qb, qb)[:, None] - 2.0 * (qb @ X64.T)
        for q, row in zip(qb, approx):
            kth = np.partition(row, kk - 1)[kk - 1]
            cand = np.nonzero(row <= kth + 1e-6 * (1.0 + abs(kth)))[0]
            diff = X64[cand] - q
            d2 = np.einsum("ij,ij->i", diff, diff)
            order = np.lexsort((cand, d2))[:kk]
            out.append([(float(np.sqrt(d2[i])), int(cand[i])) for i in order])
    return out


def truth_for(X, Q, records) -> dict:
    """Brute-force top-``KMAX`` of every pool row the records asked about."""
    rows = sorted({r for call, _, _ in records for r in call.queries})
    return dict(zip(rows, brute_topk(X, Q[rows], KMAX)))


def same_topk(answer, truth) -> bool:
    """True when ``answer`` has the ids of ``truth`` in order and the same
    distances up to round-off."""
    if answer is None or len(answer) != len(truth):
        return False
    return all(int(ai) == ti and abs(float(ad) - td) <= DIST_TOL * (1.0 + td)
               for (ad, ai), (td, ti) in zip(answer, truth))


def meminfo_kib() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    raise RuntimeError("MemTotal missing from /proc/meminfo")


def git_sha(root: Path) -> str:
    """The commit of ``root``, or ``"unknown"`` outside a git checkout."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_metadata(root: Path) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "mem_total_kib": meminfo_kib(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": version("pyspark"),
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "started_unix": time.time(),
    }


def closed_loop(calls, do, *, seconds: float = 0.0, min_calls: int = 0,
                between=None) -> list[tuple]:
    """One client issuing ``calls`` back to back, each after the previous
    answer, for at least ``seconds`` and ``min_calls`` calls. ``between(call)``
    runs after each call, outside its timing.

    ``do(call, i)`` returns one answer list per query of the call. An
    exception is printed and recorded as a ``None`` answer, which the gate
    counts as wrong. Returns ``[(call, latency_s, answers), ...]``.
    """
    records = []
    deadline = time.perf_counter() + seconds
    for call in calls:
        if len(records) >= min_calls and time.perf_counter() >= deadline:
            break
        t = time.perf_counter()
        try:
            answers = do(call, len(records))
        except Exception:  # noqa: BLE001 - a failed call is a wrong answer, not a crash
            traceback.print_exc(file=sys.stderr)
            answers = None
        records.append((call, time.perf_counter() - t, answers))
        if between is not None:
            between(call)
    return records


def judge(records, truth: dict) -> list[int]:
    """Wrong answers per record, over every query of every record.

    ``truth`` maps a query key to its top-``KMAX`` list; each call carries
    ``queries`` (keys) and ``k``.
    """
    wrong = []
    for call, _, answers in records:
        n = 0
        for j, key in enumerate(call.queries):
            got = answers[j] if answers is not None and j < len(answers) else None
            n += not same_topk(got, truth[key][:call.k])
        wrong.append(n)
    return wrong
