"""Table III: median k-NN query times (36 cores -> 16 partitions)."""
from _common import emit, get_spark

from repro.experiments.local_bench import local_engine_times
from repro.experiments.tables import ALL_DATASETS, table3

if __name__ == "__main__":
    spark = get_spark("table3")
    emit("Table III — median k-NN query times in ms (36 cores)", table3(spark))
    loc = local_engine_times(ALL_DATASETS, ks=(1, 3, 5, 10, 20, 50))
    emit("Table III, engine level (driver-local, median over 17 datasets)",
         loc.groupby(["method", "k"])["ms"].median().round(2)
         .unstack("k").reset_index())
    spark.stop()
