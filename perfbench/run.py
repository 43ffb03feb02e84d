"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload engine-hf --seed 1 --seconds 30 --trace 0

Run from the repository root. Prints one line per metric (name, value,
unit, sample count), then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``. The full report, with run metadata and, for a traced
run, the span dump, goes to ``perfbench/out/``. See perfbench/README.md.
"""
import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The benchmark's JSON names for each workload's metrics: every workload
# reports every end-to-end name of BENCHMARK.json, so a name stands for the
# matching path of the workload. Engine timings are at nominal host speed;
# Spark timings are as measured, because the Spark session runs beside the
# speed probe and can move it (see README.md, "Host speed").
ENGINE_NAMES = {
    "setup_s": "setup_s.nominal",
    "sofa_ms_p50": "sofa_query_ms_p50.nominal",
    "sofa_ms_tail": "sofa_query_ms_p90.nominal",
    "alt_path_ms_p50": "messi_query_ms_p50.nominal",
    "index_bytes_per_data_byte": "index_bytes_per_data_byte",
}
SPARK_NAMES = {
    "setup_s": "setup_s",
    "sofa_ms_p50": "spark_action_ms_p50",
    "sofa_ms_tail": "spark_action_ms_p75",
    "alt_path_ms_p50": "sql_query_ms_p50",
    "index_bytes_per_data_byte": "index_bytes_per_data_byte",
}


def engine_workload(dataset: str, scale: float):
    def run(seed, seconds, trace):
        from perfbench import engines

        params = engines.EngineParams(dataset, scale)
        return engines.run(params, seed, seconds, trace, os.cpu_count() or 1)
    return run


def spark_workload(seed, seconds, trace):
    from perfbench import spark

    return spark.run(spark.SparkParams(), seed, seconds, trace, os.cpu_count() or 1, ROOT)


WORKLOADS = {
    "engine-hf": (engine_workload("LenDB", 4.0), ENGINE_NAMES),
    "engine-lf": (engine_workload("Astro", 3.0), ENGINE_NAMES),
    "spark-hf": (spark_workload, SPARK_NAMES),
}


def result_line(report, names: dict[str, str], spec: dict, trace: bool) -> dict:
    """The last stdout line: the contract's metric names, nothing else."""
    if trace:
        wanted = {m["name"]: m["name"] for m in spec["per_layer"]}
    else:
        wanted = {m["name"]: names[m["name"]] for m in spec["end_to_end"]}
    metrics = {}
    for name, source in wanted.items():
        if source in report.metrics:
            metric = report.metrics[source]
            metrics[name] = {"value": metric.value, "unit": metric.unit}
    return {"correct": report.failed == 0, "attempted": report.attempted,
            "failed": report.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    # The script's own directory would shadow modules by the benchmark's
    # file names; import the benchmark as the package it is instead.
    if sys.path and Path(sys.path[0]).resolve() == ROOT / "perfbench":
        del sys.path[0]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro  # noqa: F401 - pins BLAS threads before NumPy loads
    from perfbench.common import run_metadata

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = run_metadata(ROOT)
    run, names = WORKLOADS[args.workload]
    report = run(args.seed, args.seconds, bool(args.trace))

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "meta": meta, "params": report.params,
            "attempted": report.attempted, "failed": report.failed,
            "absent": report.absent,
            "metrics": {k: asdict(v) for k, v in report.metrics.items()}}
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1, default=str))
    if report.spans:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(report.spans))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"meta={json.dumps(meta, default=str)}")
    print(f"# params={json.dumps(report.params, default=str)}")
    for name, metric in report.metrics.items():
        print(f"{name} = {metric.value:.6g} {metric.unit} (n={metric.n})")
    for name in report.absent:
        print(f"{name} = absent (its kernel is gone from repro.index.tree)")
    print(f"answers: attempted={report.attempted} failed={report.failed}")
    print(json.dumps(result_line(report, names, spec, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
