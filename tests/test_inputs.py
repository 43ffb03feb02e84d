"""Every engine rejects non-finite and wrong-length input and ``k < 1``
with ValueError instead of answering with invented neighbours, and
answers an empty collection with no neighbours."""
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.baselines import flat_knn, ucr_knn
from repro.index import build_messi, build_sofa
from repro.summaries.sfa import SFASummary
from tests.helpers import znormed

CASES = ["nan query", "nan query on duplicates", "inf query",
         "short query", "nan row", "inf row"]

# Runs in a child process with a timeout: a NaN best-so-far used to stall
# the tree engines' drain loop, and a hang must fail the test, not the suite.
SCRIPT = """
import sys
import numpy as np
from repro.baselines import flat_knn, ucr_knn
from repro.index import build_messi, build_sofa

def run(engine, X, Q):
    if engine in ("sofa", "messi"):
        idx = (build_sofa if engine == "sofa" else build_messi)(X, leaf_size=16)
        return [idx.knn(q, k=2) for q in Q]
    return (ucr_knn if engine == "ucr" else flat_knn)(X, Q, k=2)

def poke(a, value):
    a = a.astype(np.float64)
    a[0, 5] = value
    return a

g = np.random.default_rng(0)
X = g.standard_normal((200, 32)).astype(np.float32)
dups = np.repeat(g.integers(-2, 3, (40, 32)), 5, axis=0).astype(np.float32)
cases = {
    "nan query": (X, poke(X[:2], np.nan)),
    "nan query on duplicates": (dups, poke(dups[:2], np.nan)),
    "inf query": (X, poke(X[:2], np.inf)),
    "short query": (X, X[:2, :31]),
    "nan row": (poke(X, np.nan), X[:2]),
    "inf row": (poke(X, -np.inf), X[:2]),
}
for label, (data, queries) in cases.items():
    try:
        run(sys.argv[1], data, queries)
        outcome = "accepted"
    except Exception as e:
        outcome = type(e).__name__
    print(f"{label}:{outcome}")
"""


@pytest.mark.parametrize("engine", ["sofa", "messi", "ucr", "flat"])
def test_rejects_non_finite_and_wrong_length(engine):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", SCRIPT, engine], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    got = dict(line.rsplit(":", 1) for line in out.splitlines())
    assert got == dict.fromkeys(CASES, "ValueError")


def _knn(engine, X, Q, k):
    if engine in ("sofa", "messi"):
        idx = build_sofa(X, summary=SFASummary.fit(znormed(64, 32), l=8, alphabet=16),
                         leaf_size=16) if engine == "sofa" else build_messi(X, leaf_size=16)
        return [idx.knn(q, k=k) for q in Q]
    return (ucr_knn if engine == "ucr" else flat_knn)(X, Q, k=k)


@pytest.mark.parametrize("engine", ["sofa", "messi", "ucr", "flat"])
@pytest.mark.parametrize("k", [0, -1])
def test_rejects_k_below_one(engine, k):
    X = znormed(50, 32)
    with pytest.raises(ValueError, match="k must be >= 1"):
        _knn(engine, X, X[:2], k)


@pytest.mark.parametrize("engine", ["sofa", "messi", "ucr", "flat"])
def test_empty_collection_answers_empty(engine):
    assert _knn(engine, np.zeros((0, 32), np.float32), znormed(3, 32), 2) == [[], [], []]
