"""Distributed TLB (tightness of lower bound) evaluation — Tables V/VI.

TLB = mean over (query, series) pairs of ``LBD / true distance``
(Section V-E, after Keogh et al.); higher is better, and 1.0 means the
summarization loses nothing for pruning purposes. The series side is
partitioned in Spark; each partition computes, for every candidate
summarization, the vectorized LBD of all queries against its series and
emits partial (sum, count); a Spark aggregation finishes the mean. One
Spark action evaluates *all* (method, alphabet) variants of one dataset.
"""
from typing import Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.distance import ed2_batch
from repro.distrib.dataset import read_rows, series_df
from repro.summaries.common import SymbolicSummary
from repro.summaries.sax import SAXSummary
from repro.summaries.sfa import SFASummary
from repro.summaries.simd import batch_mindist2

#: paper ablation variants (Table V/VI rows)
TLB_METHODS = ("SFA ED +VAR", "SFA EW +VAR", "iSAX")


def fit_variants(train: np.ndarray, alphabets) -> dict[str, SymbolicSummary]:
    """Fit every (method, alphabet) summary on the training split, at the
    summaries' word length (16, the paper's).

    Keys are ``f"{method}|{alphabet}"``.
    """
    n = train.shape[1]
    out: dict[str, SymbolicSummary] = {}
    for a in alphabets:
        out[f"SFA ED +VAR|{a}"] = SFASummary.fit(train, alphabet=a, binning="equi_depth")
        out[f"SFA EW +VAR|{a}"] = SFASummary.fit(train, alphabet=a, binning="equi_width")
        out[f"iSAX|{a}"] = SAXSummary(n, alphabet=a)
    return out


def tlb_spark(spark: SparkSession, eval_x: np.ndarray, queries: np.ndarray,
              summaries: dict[str, SymbolicSummary],
              partitions: int = 8) -> dict[str, float]:
    """Mean TLB of each summary over all (query, series) pairs — one action.

    Pairs at zero true distance are skipped; a summary with no other pair
    scores 1.0. The job fails, with the workers' ``ValueError`` naming the
    summary's label, when a ratio exceeds 1 + 1e-6: that "lower bound" is
    not one. Ratios within that round-off slack count as 1.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    df = series_df(spark, eval_x, num_partitions=partitions)

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        for batch in batches:
            if not batch.num_rows:
                continue
            _, X = read_rows(batch)
            true = np.sqrt(ed2_batch(queries, X))  # (Q, N)
            mask = true > 1e-12
            labels, sums, cnts = [], [], []
            for label, s in summaries.items():
                words = s.words(X)
                qv = s.approx(queries)
                lbd2 = np.stack([
                    batch_mindist2(qv[i], words, s.edges, s.weights)
                    for i in range(len(queries))])
                ratio = np.sqrt(lbd2)[mask] / true[mask]
                if (ratio > 1.0 + 1e-6).any():
                    raise ValueError(f"{label}: LBD exceeds the true distance "
                                     f"(max ratio {ratio.max():.6f})")
                labels.append(label)
                sums.append(float(np.clip(ratio, 0.0, 1.0).sum()))
                cnts.append(int(mask.sum()))
            yield pa.record_batch({"label": labels, "s": sums, "c": cnts})

    agg = (df.mapInArrow(run, schema="label string, s double, c long")
           .groupBy("label").agg(F.sum("s").alias("s"), F.sum("c").alias("c"))
           .collect())
    return {r["label"]: (r["s"] / r["c"] if r["c"] else 1.0) for r in agg}
