"""In-process engine workloads: ``engine-hf`` and ``engine-lf``.

One process, one client, closed loop over the four engines of the paper:
``build_sofa`` and ``build_messi`` trees answer one query per call with k
alternating 1 and 10; ``ucr_knn`` does the same; ``flat_knn`` gets
mini-batches of nproc queries (the paper's FAISS protocol) and each query
of a batch is charged the batch time.
"""
import gc
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from statistics import median
from typing import NamedTuple

import numpy as np

import repro.index.tree as tree_module
from repro.baselines import flat_knn, ucr_knn
from repro.index import SearchStats, build_messi, build_sofa
from repro.summaries.sfa import SFASummary

from perfbench.common import (KMAX, Metric, Report, SpeedProbe, closed_loop, judge, percentiles,
                              truth_for, workload_inputs)
from perfbench.spans import Tracer

TREES = ("sofa", "messi")
ENGINES = TREES + ("ucr", "flat")
# One closed-loop cycle. SOFA answers in a few ms and MESSI in up to ~150 ms
# on engine-hf, so SOFA gets four calls per MESSI call to reach enough
# samples for its p90; the scans run once per cycle, enough for a median.
CYCLE = ("sofa", "sofa", "messi", "sofa", "sofa") * 3 + ("ucr", "flat")
# The kernels repro.index.tree looks up at call time, and their span names.
KERNELS = {"batch_mindist2": "summaries.simd.series_lbd",
           "batch_interval_mindist2": "summaries.simd.leaf_lbd",
           "ed2_batch": "core.ed2_batch"}


@dataclass(frozen=True)
class EngineParams:
    dataset: str
    scale: float
    n_queries: int = 512  # query pool, cycled through
    setups: int = 5  # one build varies by up to 1.5x within a run


class Call(NamedTuple):
    engine: str
    queries: tuple[int, ...]  # rows of the query pool
    k: int


def schedule(n_pool: int, batch: int):
    """Endless call stream in CYCLE order: fresh pool rows per call, k
    alternating 1 and KMAX per engine, ``batch`` queries per flat call."""
    made = dict.fromkeys(ENGINES, 0)
    cursor = 0
    while True:
        for eng in CYCLE:
            n = batch if eng == "flat" else 1
            yield Call(eng, tuple((cursor + i) % n_pool for i in range(n)),
                       (1, KMAX)[made[eng] % 2])
            made[eng] += 1
            cursor += n


def answer(call: Call, X, Q, trees: dict, tracer: Tracer | None = None,
           call_id: int | None = None, stats: dict | None = None) -> list:
    """Run one call; with a tracer, record its span and SearchStats."""
    name = f"index.knn.{call.engine}" if call.engine in TREES else f"baselines.{call.engine}"
    with tracer.span(name, call_id) if tracer else nullcontext():
        if call.engine in TREES:
            st = SearchStats()
            res = [trees[call.engine].knn(Q[call.queries[0]], k=call.k, stats=st)]
            if stats is not None:
                stats[call.engine].append(st)
            return res
        fn = ucr_knn if call.engine == "ucr" else flat_knn
        return fn(X, Q[list(call.queries)], k=call.k)


def build_trees(X, summary=None, tracer: Tracer | None = None) -> dict:
    with tracer.span("index.build.sofa") if tracer else nullcontext():
        sofa = build_sofa(X, summary=summary)
    with tracer.span("index.build.messi") if tracer else nullcontext():
        messi = build_messi(X)
    return {"sofa": sofa, "messi": messi}


def index_bytes(build) -> int:
    """Bytes that the object returned by ``build()`` keeps allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()  # noqa: F841 - held so its memory is still traced
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def run(p: EngineParams, seed: int, seconds: float, trace: bool, nproc: int) -> Report:
    X, Q = workload_inputs(p.dataset, p.scale, p.n_queries, seed)
    rep = Report(params={"dataset": p.dataset, "scale": p.scale, "n_series": len(X),
                         "length": X.shape[1], "query_pool": len(Q), "setups": p.setups,
                         "flat_batch": nproc, "cycle": list(CYCLE), "k": [1, KMAX]})
    calls = schedule(len(Q), nproc)
    if trace:
        records = _traced(rep, X, Q, calls, seconds)
    else:
        records = _measured(rep, p, X, Q, calls, seconds)
    rep.attempted += sum(len(c.queries) for c, _, _ in records)
    rep.failed += sum(judge(records, truth_for(X, Q, records)))
    if not trace:
        rep.metrics["wrong_answer_frac"] = Metric(rep.failed / rep.attempted, "frac",
                                                  rep.attempted)
    return rep


def _measured(rep: Report, p: EngineParams, X, Q, calls, seconds: float) -> list:
    setup_s, trees, probe = [], None, SpeedProbe()
    for _ in range(p.setups):
        trees = None
        gc.collect()
        t = time.perf_counter()
        trees = build_trees(X)
        setup_s.append(time.perf_counter() - t)

    def do(call, _):
        return answer(call, X, Q, trees)

    # One untimed cycle first, so allocator growth and lazy set-up are paid.
    warm = closed_loop(calls, do, min_calls=len(CYCLE))
    # The probe runs after every call but SOFA's, about 6 % of the loop.
    records = closed_loop(calls, do, seconds=seconds, min_calls=len(CYCLE),
                          between=lambda call: call.engine != "sofa" and probe.run())
    lat = {e: [] for e in ENGINES}
    for call, s, _ in records:
        lat[call.engine] += [s * 1e3] * len(call.queries)
    trees = None
    m = rep.metrics
    m["setup_s"] = Metric(median(setup_s), "s", len(setup_s))
    m.update(percentiles("sofa_query_ms", lat["sofa"], (50, 90)))
    m.update(percentiles("messi_query_ms", lat["messi"], (50, 90)))
    m.update(percentiles("ucr_query_ms", lat["ucr"], (50,)))
    m.update(percentiles("flat_query_ms", lat["flat"], (50,)))
    m.update(probe.rescale(m))
    m["index_bytes_per_data_byte"] = Metric(index_bytes(lambda: build_sofa(X)) / X.nbytes,
                                            "B/B", 1)
    rep.params["setup_s_all"] = setup_s
    return warm + records


def _traced(rep: Report, X, Q, calls, seconds: float) -> list:
    tracer = Tracer()
    rep.metrics.update(summary_layers(tracer, X, Q))
    trees = build_trees(X, tracer=tracer)

    def plain(call, _):
        return answer(call, X, Q, trees)

    warm = closed_loop(calls, plain, min_calls=len(CYCLE))
    untraced = closed_loop(calls, plain, seconds=seconds / 2, min_calls=len(CYCLE))
    traced = traced_replay(rep, tracer, X, Q, trees, [c for c, _, _ in untraced])
    rep.metrics["trace.overhead_frac"] = Metric(
        sum(s for _, s, _ in traced) / sum(s for _, s, _ in untraced), "ratio", len(traced))
    rep.spans = tracer.dump()
    return warm + untraced + traced


def summary_layers(tracer: Tracer, X, Q, summary=None) -> dict[str, Metric]:
    """Fit, word and approx costs of SFA over collection ``X`` and pool ``Q``.

    The fit runs on a 1 % sample, the fraction ``build_sofa`` and
    ``fit_sfa_spark`` use by default.
    """
    sample = X[:max(64, len(X) // 100)]
    with tracer.span("summaries.fit"):
        fitted = SFASummary.fit(sample)
    if summary is None:
        summary = fitted
    with tracer.span("summaries.words"):
        summary.words(X)
    for i, q in enumerate(Q):
        with tracer.span("summaries.approx", i):
            summary.approx(q[None, :])
    return {
        "summaries.fit_ms": Metric(tracer.total_ns("summaries.fit") / 1e6, "ms", 1),
        "summaries.words_ms": Metric(tracer.total_ns("summaries.words") / 1e6, "ms", 1),
        "summaries.approx_us_per_query": Metric(
            tracer.total_ns("summaries.approx") / 1e3 / len(Q), "us", len(Q)),
    }


def traced_replay(rep: Report, tracer: Tracer, X, Q, trees: dict, calls: list) -> list:
    """Run ``calls`` again with the tree kernels wrapped, and turn the spans
    and SearchStats into per-layer metrics on ``rep``."""
    stats = {e: [] for e in TREES}
    present = {attr: tracer.wrap(tree_module, attr, name) for attr, name in KERNELS.items()}
    try:
        records = closed_loop(calls, lambda call, i: answer(call, X, Q, trees, tracer, i, stats),
                              min_calls=len(calls))
    finally:
        tracer.unwrap()
    m = rep.metrics
    for e in TREES:
        knn, st = f"index.knn.{e}", stats[e]
        n = max(1, len(st))
        shape = trees[e].structure_stats()
        words = sum(s.series_lbd_checked for s in st)
        eds = sum(s.series_ed_computed for s in st)
        m[f"index.build_ms.{e}"] = Metric(tracer.total_ns(f"index.build.{e}") / 1e6, "ms", 1)
        m[f"index.knn_self_ms_per_query.{e}"] = Metric(
            (tracer.total_ns(knn) - tracer.child_ns(knn)) / 1e6 / n, "ms", len(st))
        m[f"index.n_leaves.{e}"] = Metric(shape["n_leaves"], "count", 1)
        m[f"index.mean_leaf_fill.{e}"] = Metric(shape["mean_leaf_fill"], "frac", 1)
        m[f"index.leaves_visited_per_query.{e}"] = Metric(
            sum(s.leaves_visited for s in st) / n, "count", len(st))
        m[f"index.series_lbd_per_query.{e}"] = Metric(words / n, "count", len(st))
        m[f"index.series_ed_per_query.{e}"] = Metric(eds / n, "count", len(st))
        m[f"index.pruning_ratio.{e}"] = Metric(
            float(np.mean([s.pruning_ratio for s in st])) if st else 0.0, "frac", len(st))
        kernel = {name: tracer.total_ns(name, under=knn) for name in KERNELS.values()}
        per_kernel = {
            "batch_mindist2": {
                f"summaries.simd.series_lbd_ms_per_query.{e}":
                    Metric(kernel["summaries.simd.series_lbd"] / 1e6 / n, "ms", len(st)),
                f"summaries.simd.series_lbd_ns_per_word.{e}":
                    Metric(kernel["summaries.simd.series_lbd"] / max(1, words), "ns", words)},
            "batch_interval_mindist2": {
                f"summaries.simd.leaf_lbd_ms_per_query.{e}":
                    Metric(kernel["summaries.simd.leaf_lbd"] / 1e6 / n, "ms", len(st))},
            "ed2_batch": {
                f"core.ed_ms_per_query.{e}":
                    Metric(kernel["core.ed2_batch"] / 1e6 / n, "ms", len(st)),
                f"core.ed_ns_per_series.{e}":
                    Metric(kernel["core.ed2_batch"] / max(1, eds), "ns", eds)},
        }
        for attr, metrics in per_kernel.items():
            if present[attr]:
                m.update(metrics)
            else:
                rep.absent.extend(metrics)
    for e in ("ucr", "flat"):
        n = sum(len(c.queries) for c, _, _ in records if c.engine == e)
        m[f"baselines.{e}_ms_per_query"] = Metric(
            tracer.total_ns(f"baselines.{e}") / 1e6 / max(1, n), "ms", n)
    return records
