"""Shared session bootstrap for the spark-submit entrypoints.

Jobs run standalone (``python jobs/table2_1nn.py`` or spark-submit);
under pytest the same driver functions are called with the conftest
``spark`` fixture instead. Both take their Spark settings from
``repro.distrib.session``.
"""
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from repro.distrib.session import configure_launch, get_session  # noqa: E402

configure_launch(SRC)


def get_spark(app: str):
    s = get_session(app)
    s.sparkContext.setLogLevel("ERROR")
    return s


def emit(title: str, frame) -> None:
    print(f"\n=== {title} ===")
    print(frame.to_string(index=False))
