"""The paired-run summary of ``tools/bench_pairs.py``: seed lists, win
counts in each metric's direction, each side's quartiles, pairs left out
for errors, wrong answers or more failed operations, and the per-metric
verdict."""
from tools.bench_pairs import parse_seeds, summarize

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "fill", "unit": "frac", "better": "higher", "bound": 0.05},
]}


def run(parent: dict, change: dict, correct=(True, True), failed=(0, 0)) -> dict:
    def side(values, ok, n_failed):
        return {"correct": ok, "failed": n_failed,
                "metrics": {k: {"value": v} for k, v in values.items()}}
    return {"parent": side(parent, correct[0], failed[0]),
            "change": side(change, correct[1], failed[1])}


def test_parse_seeds():
    assert parse_seeds("101-104") == [101, 102, 103, 104]
    assert parse_seeds("5,9,12-13") == [5, 9, 12, 13]


def test_summarize_counts_wins_in_each_direction():
    runs = [run({"setup_s": 0.4, "fill": 0.5}, {"setup_s": 0.2, "fill": 0.6}),
            run({"setup_s": 0.3, "fill": 0.5}, {"setup_s": 0.3, "fill": 0.4}),
            run({"setup_s": 0.5, "fill": 0.5}, {"setup_s": 0.6, "fill": 0.7}),
            {"parent": {"error": "exit 1"}, "change": {"error": "exit 1"}}]
    s = summarize(runs, SPEC)
    assert (s["setup_s"]["wins"], s["setup_s"]["losses"], s["setup_s"]["ties"]) == (1, 1, 1)
    assert (s["fill"]["wins"], s["fill"]["losses"], s["fill"]["ties"]) == (2, 1, 0)
    assert s["setup_s"]["pairs"] == 3
    assert s["setup_s"]["parent"] == {"median": 0.4, "q1": 0.35, "q3": 0.45,
                                      "errored": 1, "incorrect": 0, "failed": 0}
    assert abs(s["setup_s"]["median_gap"] - 0.1) < 1e-12
    assert abs(s["setup_s"]["parent_iqr"] - 0.1) < 1e-12
    assert s["fill"]["median_gap"] == 0.6 - 0.5


def test_summarize_leaves_out_wrong_or_failing_pairs():
    """A pair counts only if both sides answered correctly and the change
    failed no more operations than the parent; the counts show the rest."""
    good = run({"setup_s": 0.4}, {"setup_s": 0.3})
    runs = [good, good,
            run({"setup_s": 0.4}, {"setup_s": 0.1}, correct=(True, False)),
            run({"setup_s": 0.4}, {"setup_s": 0.1}, correct=(False, True)),
            run({"setup_s": 0.4}, {"setup_s": 0.1}, failed=(1, 2)),
            run({"setup_s": 0.4}, {"setup_s": 0.3}, failed=(2, 1)),
            {"parent": {"error": "exit 1"}, "change": good["change"]}]
    s = summarize(runs, SPEC)["setup_s"]
    assert (s["pairs"], s["wins"]) == (3, 3)
    assert s["change"]["median"] == 0.3
    assert {k: s["parent"][k] for k in ("errored", "incorrect", "failed")} == \
        {"errored": 1, "incorrect": 1, "failed": 3}
    assert {k: s["change"][k] for k in ("errored", "incorrect", "failed")} == \
        {"errored": 0, "incorrect": 1, "failed": 3}


def verdicts(parent: list[float], change: list[float], name="setup_s") -> str:
    return summarize([run({name: p}, {name: c}) for p, c in zip(parent, change)],
                     SPEC)[name]["verdict"]


def test_deterministic_metric_that_wins_every_pair_is_a_gain():
    """A metric with no spread (parent IQR 0) gains when it wins 10/10."""
    assert verdicts([0.0248] * 10, [0.0188] * 10) == "gain"
    assert verdicts([0.5] * 10, [0.6] * 10, name="fill") == "gain"


def test_ties_count_for_neither_side():
    """Nine tenths of all pairs must be wins: a tie is no win."""
    assert verdicts([1.0] * 10, [0.9] * 9 + [1.0]) == "gain"
    assert verdicts([1.0] * 10, [0.9] * 8 + [1.0] * 2) == "level"


def test_a_gain_needs_a_gap_beyond_the_parents_spread():
    parent = [1.0, 1.2, 1.4, 1.6, 1.8] * 2  # IQR 0.4
    assert verdicts(parent, [p - 0.1 for p in parent]) == "level"
    assert verdicts(parent, [p - 0.5 for p in parent]) == "gain"


def test_worse_beyond_the_relative_bound_in_each_direction():
    """``setup_s`` may rise by 25 % and ``fill`` fall by 5 % before the
    change reads worse."""
    assert verdicts([0.4] * 10, [0.45] * 10) == "level"
    assert verdicts([0.4] * 10, [0.55] * 10) == "worse"
    assert verdicts([0.5] * 10, [0.48] * 10, name="fill") == "level"
    assert verdicts([0.5] * 10, [0.45] * 10, name="fill") == "worse"
