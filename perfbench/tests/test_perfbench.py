"""The benchmark's own tests: tiny-scale smoke runs of every workload and
checks that the exactness gate catches wrong answers.

    python3 -m pytest perfbench/tests -q
"""
import json
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import engines, run, spark  # noqa: E402
from perfbench.common import brute_topk, judge, same_topk  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENGINE_E2E = ["setup_s", "sofa_query_ms_p50", "sofa_query_ms_p90", "messi_query_ms_p50",
              "messi_query_ms_p90", "ucr_query_ms_p50", "flat_query_ms_p50",
              "wrong_answer_frac", "index_bytes_per_data_byte"]
SPARK_E2E = ["setup_s", "spark_action_ms_p50", "spark_action_ms_p75", "sql_query_ms_p50",
             "wrong_answer_frac", "index_bytes_per_data_byte"]
DISTRIB = ["distrib.series_df_s", "distrib.fit_sfa_spark_ms", "distrib.with_words_s",
           "distrib.stage_floor_ms", "distrib.exact_knn_cold_ms", "distrib.exact_knn_warm_ms",
           "distrib.partition_build_ms", "distrib.partition_answer_ms",
           "distrib.action_unattributed_ms", "distrib.gemini_sql_ms_per_query",
           "distrib.gemini_survivor_frac"]
TINY_ENGINE = engines.EngineParams("LenDB", 0.05, n_queries=32, setups=2)
TINY_SPARK = spark.SparkParams(scale=0.05, n_queries=24, setups=2)


def assert_emits(report, names, e2e_names, trace):
    for name in names:
        metric = report.metrics[name]
        assert metric.unit and metric.n >= 1 and np.isfinite(metric.value), name
    line = run.result_line(report, e2e_names, SPEC, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    if not trace:
        assert report.metrics["wrong_answer_frac"].value == 0


@pytest.mark.parametrize("trace", [False, True])
def test_engine_smoke_emits_every_metric(trace):
    report = engines.run(TINY_ENGINE, seed=3, seconds=0.5, trace=trace, nproc=2)
    names = [m["name"] for m in SPEC["per_layer"]] if trace else ENGINE_E2E
    assert_emits(report, names, run.ENGINE_NAMES, trace)
    if trace:
        assert report.spans and {"name", "start_ns", "end_ns", "parent",
                                 "call_id"} <= set(report.spans[0])


@pytest.mark.parametrize("trace", [False, True])
def test_spark_smoke_emits_every_metric(trace):
    report = spark.run(TINY_SPARK, seed=3, seconds=1.0, trace=trace, nproc=2, root=ROOT)
    names = [m["name"] for m in SPEC["per_layer"]] + DISTRIB if trace else SPARK_E2E
    assert_emits(report, names, run.SPARK_NAMES, trace)


def test_gate_flags_injected_wrong_neighbour():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 32)).astype(np.float32)
    Q = rng.standard_normal((3, 32)).astype(np.float32)
    truth = dict(enumerate(brute_topk(X, Q, 10)))
    call = engines.Call("sofa", (1,), 10)
    right = truth[1]
    swapped = [right[0], (right[1][0], right[2][1])] + right[2:]
    assert judge([(call, 0.0, [right])], truth) == [0]
    assert judge([(call, 0.0, [swapped])], truth) == [1]
    assert judge([(call, 0.0, None)], truth) == [1]  # an exception is wrong
    assert not same_topk(right[:9], right)  # a missing neighbour is wrong


def test_injected_wrong_neighbour_fails_the_run(monkeypatch):
    real_knn = engines.tree_module.TreeIndex.knn

    def off_by_one(self, q, k=1, **kw):
        res = real_knn(self, q, k=k, **kw)
        return [(d, i + 1) for d, i in res[:1]] + res[1:]

    monkeypatch.setattr(engines.tree_module.TreeIndex, "knn", off_by_one)
    report = engines.run(TINY_ENGINE, seed=3, seconds=0.3, trace=False, nproc=2)
    assert report.failed > 0
    assert report.metrics["wrong_answer_frac"].value > 0
    assert run.result_line(report, run.ENGINE_NAMES, SPEC, False)["correct"] is False


def test_oracle_flags_wrong_spark_row():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((300, 16)).astype(np.float32)
    Q = rng.standard_normal((4, 16)).astype(np.float32)
    call = spark.SparkCall("action", (0, 1, 2), 5)
    rows = [(qi, sid, d, r + 1) for qi, qrow in enumerate(call.queries)
            for r, (d, sid) in enumerate(brute_topk(X, Q[[qrow]], 5)[0])]
    good = pd.DataFrame(rows, columns=spark.ORACLE_COLUMNS)
    bad = good.copy()
    bad.loc[3, "series_id"] = (bad.loc[3, "series_id"] + 1) % len(X)
    assert spark.oracle_failures([(call, good), (call, bad), (call, None)], X, Q) == [
        False, True, True]
