"""Spark bootstrap shared by the pytest session and the job entry points."""
import os

from pyspark.sql import SparkSession


def driver_memory() -> str:
    """Heap for the Spark driver JVM, e.g. ``"7g"``.

    An explicit ``SPARK_DRIVER_MEM`` wins. Otherwise: half of the host's
    ``MemTotal`` in whole GiB, clamped to 2..8 GiB (the rule of the test
    command in ROADMAP.md), or 2g when ``/proc/meminfo`` is unreadable.
    ``configure_launch`` puts it in ``PYSPARK_SUBMIT_ARGS``.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // 2097152))}g"


def configure_launch(src: str) -> None:
    """Before the first session starts: put ``src`` on ``PYTHONPATH`` (a
    Python worker starts a fresh interpreter, which finds ``repro`` only
    there), default ``SPARK_DRIVER_MEM`` to ``driver_memory()`` and, unless
    set, fill ``PYSPARK_SUBMIT_ARGS`` with the master (``SPARK_MASTER``,
    default ``local[*]``), that memory, a loopback host and no web UI."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault("SPARK_DRIVER_MEM", driver_memory())
    os.environ.setdefault("PYSPARK_SUBMIT_ARGS", (
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} --driver-memory "
        f"{os.environ['SPARK_DRIVER_MEM']} --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell"))


def get_session(app: str) -> SparkSession:
    """The session named ``app``, or the running one, with the configs that
    hold after launch: ``SPARK_SHUFFLE_PARTITIONS`` (default 64) shuffle
    partitions, Arrow transfers to and from pandas, and no broadcast joins."""
    return (SparkSession.builder.appName(app)
            .config("spark.sql.shuffle.partitions",
                    os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate())
