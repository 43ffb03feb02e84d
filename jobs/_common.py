"""Shared session bootstrap for the spark-submit entrypoints.

Jobs run standalone (``python jobs/table2_1nn.py`` or spark-submit);
under pytest the same driver functions are called with the conftest
``spark`` fixture instead.
"""
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)
# Spark's Python workers start from a fresh interpreter, which finds
# ``repro`` only through PYTHONPATH.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

from repro.distrib.session import driver_memory  # noqa: E402

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {driver_memory()} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    s = (SparkSession.builder.appName(app)
         .config("spark.sql.shuffle.partitions", "64")
         .config("spark.sql.execution.arrow.pyspark.enabled", "true")
         .config("spark.sql.autoBroadcastJoinThreshold", -1)
         .getOrCreate())
    s.sparkContext.setLogLevel("ERROR")
    return s


def emit(title: str, frame) -> None:
    print(f"\n=== {title} ===")
    print(frame.to_string(index=False))
