import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
sys.path.insert(0, SRC)

from repro.distrib.session import configure_launch, get_session  # noqa: E402

configure_launch(SRC)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, launched with
    the master and driver memory ``configure_launch`` set above."""
    s = get_session("repro")
    print(f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
          f"master={s.sparkContext.master} "
          f"defaultParallelism={s.sparkContext.defaultParallelism}", file=sys.stderr)
    yield s
    s.stop()
