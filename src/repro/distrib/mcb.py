"""MCB (Algorithm 1) as a Spark job: sample -> collect -> fit -> broadcast.

The paper learns SFA's quantization from a 1 % sample of the collection
(Section IV-G, Table IV sweeps the rate). Here ``DataFrame.sample``
draws the subsample distributedly, the tiny sample is collected to the
driver, fitted with ``SFASummary.fit``, and the resulting summary
object (a few KiB of edges) rides to executors in task closures.
"""
from pyspark.sql import DataFrame

from repro.distrib.dataset import to_matrix
from repro.summaries.sfa import MIN_SAMPLE, SAMPLE_FRAC, SFASummary


def fit_sfa_spark(df: DataFrame, *, fraction: float = SAMPLE_FRAC,
                  seed: int = 0) -> SFASummary:
    """Learn an SFA summary, at ``SFASummary.fit``'s word shape, from a
    ``fraction`` sample of a series DataFrame.

    A sample of fewer than ``MIN_SAMPLE`` rows is replaced by the first
    ``MIN_SAMPLE`` rows of ``df`` (all of it, if smaller).
    """
    sample = df.sample(fraction=min(1.0, fraction), seed=seed).toArrow()
    if sample.num_rows < MIN_SAMPLE:
        sample = df.limit(MIN_SAMPLE).toArrow()
    _, X = to_matrix(sample)
    return SFASummary.fit(X)
