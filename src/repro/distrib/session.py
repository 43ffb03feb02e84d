"""Spark driver settings shared by the pytest session and the job entry points."""
import os


def driver_memory() -> str:
    """Heap for the Spark driver JVM, e.g. ``"7g"``.

    An explicit ``SPARK_DRIVER_MEM`` wins. Otherwise: half of the host's
    ``MemTotal`` in whole GiB, clamped to 2..8 GiB (the rule of the test
    command in ROADMAP.md), or 2g when ``/proc/meminfo`` is unreadable.
    ``spark.driver.memory`` is read at JVM launch, so callers put this in
    ``PYSPARK_SUBMIT_ARGS`` before the first session starts.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // 2097152))}g"
