"""Paired benchmark runs of two commits, written to ``BENCH_<workload>.json``.

    python3 tools/bench_pairs.py --workload engine-hf --parent HEAD~1 --seeds 101-110

Exports the committed files of ``--parent`` and of ``HEAD`` (the change)
with ``git archive`` into fresh directories, so each side runs exactly what
its commit holds. For every seed it runs ``perfbench/run.py --trace 0`` for
``BENCHMARK.json``'s ``run_seconds`` once on each side, alternating which
side goes first, and reads the result line (the last line of standard
output). ``BENCH_<workload>.json`` in the repository root is rewritten
after every pair. It holds the SHAs, nproc and MemTotal, every run's
metrics and answer counts, and per end-to-end metric of ``BENCHMARK.json``
each side's median and quartiles, the change's wins, losses and ties, the
gap between the medians, the parent's interquartile range and a verdict:
``gain`` when the change wins at least nine tenths of the pairs (ties count
for neither) and the gap exceeds the parent's interquartile range,
``worse`` when the change's median is worse than the parent's by more than
the metric's relative ``bound``, else ``level``. A pair
counts only if both sides ran, answered correctly and the change failed no
more operations than the parent; each side's errored and incorrect runs
and failed operations are counted over all pairs. Standard library only.
"""
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    """The committed files of ``sha`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def parse_seeds(text: str) -> list[int]:
    """``"101-110"`` or ``"5,9,12"`` -> list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its result line, or the failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def counts(runs: list[dict], side: str) -> dict:
    """``side``'s errored runs, incorrect runs and failed operations."""
    results = [r[side] for r in runs]
    return {"errored": sum("error" in x for x in results),
            "incorrect": sum(not x.get("correct", False) for x in results if "error" not in x),
            "failed": sum(x.get("failed", 0) for x in results)}


def usable(run: dict) -> bool:
    """Both sides ran and answered correctly, and the change failed no more
    operations than the parent."""
    parent, change = run["parent"], run["change"]
    return (parent.get("correct") is True and change.get("correct") is True
            and change.get("failed", 0) <= parent.get("failed", 0))


def verdict(wins: int, pairs: int, median_gap: float, parent_iqr: float,
            parent_median: float, bound: float) -> str:
    """``gain``, ``worse`` or ``level``, by the rule in the module docstring;
    ``median_gap`` is positive when the change's median is better."""
    if 10 * wins >= 9 * pairs and median_gap > parent_iqr:
        return "gain"
    if -median_gap > bound * abs(parent_median):
        return "worse"
    return "level"


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric over the usable pairs: each side's median and
    quartiles, the change's wins (better), losses and ties, and the verdict;
    with each side's errored, incorrect and failed counts over all pairs."""
    health = {"parent": counts(runs, "parent"), "change": counts(runs, "change")}
    kept = [r for r in runs if usable(r)]
    out = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                 for r in kept
                 if name in r["parent"].get("metrics", {}) and name in r["change"].get("metrics", {})]
        if not pairs:
            continue
        parent = {**quartiles([p for p, _ in pairs]), **health["parent"]}
        change = {**quartiles([c for _, c in pairs]), **health["change"]}
        wins = sum(sign * (p - c) > 0 for p, c in pairs)
        median_gap = sign * (parent["median"] - change["median"])
        parent_iqr = parent["q3"] - parent["q1"]
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], "pairs": len(pairs),
            "parent": parent, "change": change, "wins": wins,
            "losses": sum(sign * (p - c) < 0 for p, c in pairs),
            "ties": sum(p == c for p, c in pairs),
            "median_gap": median_gap, "parent_iqr": parent_iqr,
            "verdict": verdict(wins, len(pairs), median_gap, parent_iqr,
                               parent["median"], m["bound"]),
        }
    return out


def mem_total_kib() -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--seeds", required=True, help='e.g. "101-110" or "5,9,12"')
    args = ap.parse_args(argv)

    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: export(sha, work / side) for side, sha in shas.items()}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        report = {"workload": args.workload, "seconds": seconds, "shas": shas,
                  "nproc": os.cpu_count(), "mem_total_kib": mem_total_kib(), "runs": []}
        target = ROOT / f"BENCH_{args.workload}.json"
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(trees[side], args.workload, seed, seconds)
            report["runs"].append(run)
            report["summary"] = summarize(report["runs"], spec)
            target.write_text(json.dumps(report, indent=1) + "\n")
            print(f"seed {seed}: " + ", ".join(
                f"{side} {run[side].get('error') or run[side]['metrics']}" for side in order),
                flush=True)
        for name, s in report.get("summary", {}).items():
            print(f"{name}: {s['verdict']}; parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}] -> change "
                  f"{s['change']['median']:.6g}; "
                  f"wins {s['wins']}/{s['pairs']}, gap {s['median_gap']:.4g} "
                  f"vs parent IQR {s['parent_iqr']:.4g}; errored/incorrect/failed "
                  f"parent {s['parent']['errored']}/{s['parent']['incorrect']}/"
                  f"{s['parent']['failed']}, change {s['change']['errored']}/"
                  f"{s['change']['incorrect']}/{s['change']['failed']}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
