"""Table II: exact 1-NN query times per method x cores, plus the
engine-level Figure-12-style per-dataset SOFA-vs-MESSI speedups and the
engine-level scale curve that places SOFA against FAISS as N grows (see
EXPERIMENTS.md)."""
from _common import emit, get_spark

from repro.experiments.local_bench import local_engine_times, local_scale_curve
from repro.experiments.tables import ALL_DATASETS, table2

if __name__ == "__main__":
    spark = get_spark("table2")
    summary, _ = table2(spark)
    emit("Table II — 1-NN query times in ms (median/mean over 17 datasets)",
         summary)
    spark.stop()
    loc = local_engine_times(ALL_DATASETS)
    emit("Engine-level per-query ms + pruning ratio (driver-local, "
         "overhead-free)", loc)
    speed = loc.pivot(index="dataset", columns="method", values="ms")
    emit("Engine-level aggregate over 17 datasets",
         speed.agg(["mean", "median"]).round(2).reset_index())
    speed["SOFA_speedup_vs_MESSI"] = (speed["MESSI"] / speed["SOFA"]).round(2)
    emit("Per-dataset engine-level ms, Fig. 12 analog", speed.reset_index())
    emit("Engine-level scale curve: 1-NN ms/query and pruning vs N",
         local_scale_curve())
