"""Experiment drivers for the paper's evaluation tables.

One function per table, which ``jobs/`` wraps for spark-submit. The
tables run through the Spark layer (``repro.distrib``); ``local_bench``
times the same engines in-process for Tables II and III and across N.
"""
from repro.experiments.runner import timed_search
from repro.experiments.tables import (table1, table2, table3, table4, table5,
                                      table6)

__all__ = ["timed_search", "table1", "table2", "table3", "table4", "table5",
           "table6"]
