"""The Spark workload ``spark-hf``.

Set-up: ``series_df`` with nproc partitions, cached and counted,
``fit_sfa_spark``, ``with_words`` cached and counted, and the first
``exact_knn`` action. Closed loop, one client: ``exact_knn(method="sofa")``
actions over 10-query batches, collected with ``toPandas()``, alternating
with single-query ``gemini_knn_sql`` calls over the cached word frame.
"""
import os
import shlex
import subprocess
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark import SparkContext, TaskContext
from pyspark.sql import SparkSession

from repro import oracle
from repro.distrib import exact_knn, fit_sfa_spark, gemini_knn_sql, series_df, with_words
from repro.index import build_sofa
from repro.summaries.simd import batch_mindist2

from perfbench import engines
from perfbench.common import (KMAX, Metric, Report, SpeedProbe, brute_topk, closed_loop, judge, meminfo_kib,
                              percentiles, truth_for, workload_inputs)
from perfbench.spans import Tracer

# The oracle recomputes every Spark answer in DuckDB from the raw series.
ORACLE_SQL = """
WITH s AS (SELECT id, series::DOUBLE[{n}] AS v FROM series),
     q AS (SELECT query_id, k, q::DOUBLE[{n}] AS v FROM queries),
     d AS (SELECT q.query_id, q.k, s.id AS series_id, array_distance(s.v, q.v) AS dist
           FROM s CROSS JOIN q),
     r AS (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY dist, series_id)
           AS rank FROM d)
SELECT query_id, series_id, dist, rank FROM r WHERE rank <= k
"""
ORACLE_COLUMNS = ["query_id", "series_id", "dist", "rank"]
DATASET = "LenDB"
#: Queries per exact_knn action; every Spark call asks for KMAX neighbours.
BATCH = 10


@dataclass(frozen=True)
class SparkParams:
    scale: float = 1.0
    n_queries: int = 200  # query pool, cycled through
    setups: int = 3


class SparkCall(NamedTuple):
    path: str  # "action" (exact_knn) or "sql" (gemini_knn_sql)
    queries: tuple[int, ...]  # rows of the query pool
    k: int


@dataclass
class Ready:
    """The state set-up leaves behind: what every call runs against."""

    df: object
    words: object
    summary: object
    token: str


def driver_memory() -> str:
    """Half of MemTotal in whole GiB, clamped to 2..8 GiB."""
    return f"{min(8, max(2, meminfo_kib() // 2097152))}g"


def start_session(root: Path, nproc: int):
    """A ``local[nproc]`` session whose JVM, workers and temp files stay in ``root``."""
    tmp = root / "perfbench" / "out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Workers start from a fresh interpreter and import repro from src/.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    # Every JVM Spark starts: temp files in the checkout, and no
    # /tmp/hsperfdata_* directory, which HotSpot otherwise always writes.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{nproc}]", f"--driver-memory {driver_memory()}",
        "--conf spark.driver.host=127.0.0.1", "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false", "--conf spark.log.level=ERROR",
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "pyspark-shell"])
    spark = (SparkSession.builder.appName("perfbench")
             .config("spark.sql.shuffle.partitions", str(nproc))
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for its JVM, which exits when its stdin closes."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def schedule(n_pool: int):
    """Endless call stream: an action over the next ``BATCH`` pool rows,
    then one SQL query over the next row."""
    cursor = 0
    while True:
        yield SparkCall("action", tuple((cursor + i) % n_pool for i in range(BATCH)), KMAX)
        yield SparkCall("sql", ((cursor + BATCH) % n_pool,), KMAX)
        cursor += BATCH + 1


def _rows(pdf: pd.DataFrame, n_queries: int) -> list[list[tuple[float, int]]]:
    """Per-query ``[(dist, series_id), ...]`` in rank order."""
    pdf = pdf.sort_values(["query_id", "rank"])
    out = [[] for _ in range(n_queries)]
    for qid, sid, dist in zip(pdf["query_id"], pdf["series_id"], pdf["dist"]):
        out[int(qid)].append((float(dist), int(sid)))
    return out


class Client:
    """Issues calls against a ``Ready`` state and keeps every collected
    frame for the DuckDB oracle."""

    def __init__(self, Q: np.ndarray, tracer: Tracer | None = None):
        self.Q = Q
        self.tracer = tracer
        self.collected: list[tuple[SparkCall, pd.DataFrame]] = []

    def __call__(self, ready: Ready, call: SparkCall, call_id=None, cached: bool = True):
        name = "distrib.exact_knn" if call.path == "action" else "distrib.gemini_knn_sql"
        # A placeholder keeps frames aligned with records when a call raises.
        self.collected.append((call, None))
        slot = len(self.collected) - 1
        with self.tracer.span(name, call_id) if self.tracer else nullcontext():
            if call.path == "action":
                pdf = exact_knn(ready.df, self.Q[list(call.queries)], k=call.k, method="sofa",
                                summary=ready.summary,
                                cache_token=ready.token if cached else None).toPandas()
            else:
                pdf = gemini_knn_sql(ready.words, ready.summary, self.Q[call.queries[0]],
                                     k=call.k).toPandas().assign(query_id=0)
        self.collected[slot] = (call, pdf)
        return _rows(pdf, len(call.queries))


def set_up(spark, X, nproc: int, token: str, client: Client, tracer: Tracer | None = None):
    """Generated arrays to a ready state plus the first action's record."""
    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    with span("distrib.series_df"):
        df = series_df(spark, X, num_partitions=nproc).cache()
        df.count()
    with span("distrib.fit_sfa_spark"):
        summary = fit_sfa_spark(df)
    with span("distrib.with_words"):
        words = with_words(df, summary).cache()
        words.count()
    ready = Ready(df, words, summary, token)
    call = SparkCall("action", tuple(range(BATCH)), KMAX)
    t = time.perf_counter()
    answers = client(ready, call)
    return ready, (call, time.perf_counter() - t, answers)


def oracle_failures(collected, X, Q) -> list[bool]:
    """Per collected frame, whether DuckDB's own answer differs from it (a
    call that raised has no frame and counts as differing).

    All frames go through ``repro.oracle`` in one query; only when that
    fails is each frame checked alone to find the culprits.
    """
    series = pd.DataFrame({"id": np.arange(len(X)), "series": list(X.astype(np.float64))})
    sql = ORACLE_SQL.format(n=X.shape[1])

    def agrees(items) -> bool:
        got, queries, qid = [], [], 0
        for call, pdf in items:
            for j, row in enumerate(call.queries):
                queries.append((qid + j, call.k, Q[row].astype(np.float64)))
            got.append(pdf[ORACLE_COLUMNS].assign(query_id=pdf["query_id"] + qid))
            qid += len(call.queries)
        qdf = pd.DataFrame(queries, columns=["query_id", "k", "q"])
        try:
            oracle.assert_equivalent(_Collected(pd.concat(got, ignore_index=True)), sql,
                                     series=series, queries=qdf)
        except AssertionError:
            return False
        return True

    frames = [(call, pdf) for call, pdf in collected if pdf is not None]
    if not frames or agrees(frames):
        return [pdf is None for _, pdf in collected]
    return [pdf is None or not agrees([(call, pdf)]) for call, pdf in collected]


class _Collected:
    """Rows already collected from Spark, in the shape ``repro.oracle``
    reads (it calls ``toPandas()``), so the check does not rerun the query."""

    def __init__(self, pdf: pd.DataFrame):
        self._pdf = pdf

    def toPandas(self) -> pd.DataFrame:  # noqa: N802 - mirrors the Spark API
        return self._pdf


def run(p: SparkParams, seed: int, seconds: float, trace: bool, nproc: int,
        root: Path) -> Report:
    X, Q = workload_inputs(DATASET, p.scale, p.n_queries, seed)
    rep = Report(params={"dataset": DATASET, "scale": p.scale, "n_series": len(X),
                         "length": X.shape[1], "query_pool": len(Q), "setups": p.setups,
                         "partitions": nproc, "action_batch": BATCH, "k": KMAX,
                         "loop": ["action", "sql"], "driver_memory": driver_memory()})
    tracer = Tracer() if trace else None
    client = Client(Q)
    spark = start_session(root, nproc)
    try:
        if trace:
            records = _traced(rep, spark, X, Q, nproc, seed, seconds, client, tracer)
        else:
            records = _measured(rep, spark, X, Q, p, nproc, seed, seconds, client)
    finally:
        stop_session(spark)
    wrong = judge(records, truth_for(X, Q, records))
    bad = oracle_failures(client.collected, X, Q)
    # collected frames and records are in the same order, one per call
    rep.attempted += sum(len(c.queries) for c, _, _ in records)
    rep.failed += sum(len(c.queries) if b else w
                      for (c, _, _), w, b in zip(records, wrong, bad))
    rep.params["oracle_disagreements"] = sum(bad)
    if not trace:
        rep.metrics["wrong_answer_frac"] = Metric(rep.failed / rep.attempted, "frac",
                                                  rep.attempted)
    return rep


def _measured(rep, spark, X, Q, p, nproc, seed, seconds, client) -> list:
    setup_s, firsts, ready, probe = [], [], None, SpeedProbe()
    for i in range(p.setups):
        if ready is not None:
            ready.words.unpersist()
            ready.df.unpersist()
        t = time.perf_counter()
        ready, first = set_up(spark, X, nproc, f"perfbench-{seed}-{i}", client)
        setup_s.append(time.perf_counter() - t)
        firsts.append(first)
    calls = schedule(len(Q))
    # One untimed action and SQL query first: the SQL path's Python workers
    # and plan are otherwise paid by the first timed call.
    warm = closed_loop(calls, lambda call, _: client(ready, call), min_calls=2)
    records = closed_loop(calls, lambda call, _: client(ready, call),
                          seconds=seconds, min_calls=2, between=lambda call: probe.run(3))
    lat = {"action": [], "sql": []}
    for call, s, _ in records:
        lat[call.path].append(s * 1e3)
    m = rep.metrics
    m["setup_s"] = Metric(median(setup_s), "s", len(setup_s))
    m.update(percentiles("spark_action_ms", lat["action"], (50, 75)))
    m.update(percentiles("sql_query_ms", lat["sql"], (50,)))
    m.update(probe.rescale(m))
    m["index_bytes_per_data_byte"] = Metric(
        engines.index_bytes(lambda: build_sofa(X, summary=ready.summary)) / X.nbytes, "B/B", 1)
    rep.params["setup_s_all"] = setup_s
    return firsts + warm + records


def _traced(rep, spark, X, Q, nproc, seed, seconds, client, tracer) -> list:
    m = rep.metrics
    ready, first = set_up(spark, X, nproc, f"perfbench-{seed}-trace", client, tracer)
    m["distrib.series_df_s"] = Metric(tracer.total_ns("distrib.series_df") / 1e9, "s", 1)
    m["distrib.fit_sfa_spark_ms"] = Metric(tracer.total_ns("distrib.fit_sfa_spark") / 1e6,
                                           "ms", 1)
    m["distrib.with_words_s"] = Metric(tracer.total_ns("distrib.with_words") / 1e9, "s", 1)

    def noop(batches):
        for b in batches:
            yield b[["id"]].iloc[:0]

    for i in range(5):
        with tracer.span("distrib.stage_floor", i):
            ready.df.mapInPandas(noop, "id long").toPandas()
    batch = SparkCall("action", tuple(range(BATCH)), KMAX)
    fixed = []
    for path, cached in (("cold", False), ("warm", True)):
        for i in range(3):
            t = time.perf_counter()
            with tracer.span(f"distrib.exact_knn_{path}", i):
                answers = client(ready, batch, cached=cached)
            fixed.append((batch, time.perf_counter() - t, answers))
        m[f"distrib.exact_knn_{path}_ms"] = Metric(
            median(tracer.durations_ms(f"distrib.exact_knn_{path}")), "ms", 3)
    m["distrib.stage_floor_ms"] = Metric(median(tracer.durations_ms("distrib.stage_floor")),
                                         "ms", 5)

    calls = schedule(len(Q))
    warm = closed_loop(calls, lambda call, _: client(ready, call), min_calls=2)
    untraced = closed_loop(calls, lambda call, _: client(ready, call),
                           seconds=seconds / 2, min_calls=2)
    client.tracer = tracer
    traced = closed_loop([c for c, _, _ in untraced], lambda call, i: client(ready, call, i),
                         min_calls=len(untraced))
    client.tracer = None
    m["trace.overhead_frac"] = Metric(
        sum(s for _, s, _ in traced) / sum(s for _, s, _ in untraced), "ratio", len(traced))
    sql_ms = tracer.durations_ms("distrib.gemini_knn_sql")
    m["distrib.gemini_sql_ms_per_query"] = Metric(median(sql_ms), "ms", len(sql_ms))
    m["distrib.gemini_survivor_frac"] = Metric(
        gemini_survivor_frac(ready.summary, X, Q, [c for c, _, _ in traced if c.path == "sql"]),
        "frac", len(sql_ms))

    replay = partition_replay(rep, ready, X, Q[list(batch.queries)], tracer)
    m["distrib.partition_build_ms"] = m["index.build_ms.sofa"]
    m["distrib.partition_answer_ms"] = Metric(
        tracer.total_ns("index.knn.sofa") / 1e6, "ms", len(batch.queries))
    m["distrib.action_unattributed_ms"] = Metric(
        m["distrib.exact_knn_warm_ms"].value - m["distrib.stage_floor_ms"].value
        - m["distrib.partition_build_ms"].value - m["distrib.partition_answer_ms"].value,
        "ms", 3)
    m.update(engines.summary_layers(tracer, X, Q, ready.summary))
    rep.spans = tracer.dump()
    rep.params["replay_rows"] = replay
    return [first] + fixed + warm + untraced + traced


def partition_replay(rep, ready, X, Qb, tracer) -> int:
    """Build and query every engine in-process on the rows of the largest
    partition, the share of the work one task does. Returns its row count."""
    def tag(batches):
        pid = TaskContext.get().partitionId()
        for b in batches:
            yield pd.DataFrame({"pid": pid, "id": b["id"]})

    ids = ready.df.mapInPandas(tag, "pid int, id long").toPandas()
    largest = ids["pid"].value_counts().idxmax()
    Xp = X[np.sort(ids.loc[ids["pid"] == largest, "id"].to_numpy())]
    trees = engines.build_trees(Xp, ready.summary, tracer)
    n = len(Qb)
    calls = [engines.Call(e, (i,), KMAX) for e in engines.TREES for i in range(n)]
    calls += [engines.Call("ucr", (i,), KMAX) for i in range(n)]
    calls += [engines.Call("flat", tuple(range(n)), KMAX)]
    records = engines.traced_replay(rep, tracer, Xp, Qb, trees, calls)
    rep.attempted += sum(len(c.queries) for c in calls)
    rep.failed += sum(judge(records, dict(enumerate(brute_topk(Xp, Qb, KMAX)))))
    return len(Xp)


def gemini_survivor_frac(summary, X, Q, calls) -> float:
    """Share of the collection that survives GEMINI's filter, replayed
    in-process the way ``gemini_knn_sql`` plans it: seed the bound with the
    true distances of the k smallest-LBD rows, keep rows with LBD <= bound
    plus the 1e-9 slack that plan adds."""
    if not calls:
        return 0.0
    words = summary.words(X)
    X64 = X.astype(np.float64)
    ids = np.arange(len(X))
    fracs = []
    for call in calls:
        q = Q[call.queries[0]].astype(np.float64)
        lbd = np.sqrt(batch_mindist2(summary.approx(q[None, :])[0], words, summary.edges,
                                     summary.weights))
        seeds = np.lexsort((ids, lbd))[:call.k]
        bsf = np.sqrt(((X64[seeds] - q) ** 2).sum(axis=1)).max()
        fracs.append(float(np.mean(lbd <= bsf + 1e-9)))
    return float(np.mean(fracs))
