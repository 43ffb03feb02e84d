"""Answers, work counters and index layout of SOFA and MESSI, and the answers
of the UCR and flat scans, saved from one tree and compared bit for bit with
another's.

    PYTHONPATH=<tree>/src python3 tools/ident.py save <tree>.npz
    python3 tools/ident.py compare parent.npz change.npz

``save`` measures the ``repro`` that ``PYTHONPATH`` names, so one copy of
this script serves a parent commit that lacks it. Its inputs are
engine-hf's: the LenDB analog at scale 4.0 (48,000 series of 256) and 512
queries drawn by ``perfbench.common.workload_inputs`` with seed 1401;
``--scale`` and ``--queries`` shrink them. For each engine it builds the
index at leaf sizes 64 and 32 and stores the layout (``perm`` as int64,
``words_perm``, ``leaf_lo``, ``leaf_hi``, ``leaf_start``), then, at leaf
64 with k 1 and 10 and at leaf 32 with k 50, every query's distances and
ids and the six ``SearchStats`` fields. For ``ucr_knn`` and ``flat_knn`` it
stores every query's distances and ids at k 1 and 10 (``ucr/1/d``,
``flat/10/i``, ...). It also stores the words of every series and the
layout (``perm``, ``words_perm``, ``leaf_lo``, ``leaf_hi``) of a SOFA tree
over an equi-depth ``SFASummary.fit`` of every 100th series
(``sofa_equi_depth/words``, ...): equi-depth edges crowd where the sample
is dense, so more values fall in a grid cell of the quantizer that holds
several edges and take its ``searchsorted`` fallback than under the
default equi-width SFA or the SAX edges. ``compare`` names every array
that is missing from one file or differs in dtype, shape or any bit: how
many entries differ, the largest absolute difference, and the two means,
so a moved counter reads as its change per query. It exits 1 when an
array differs.
"""
import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parent.parent))  # for perfbench

# (leaf size, k) of every search that is saved
RUNS = ((64, 1), (64, 10), (32, 50))
# k of every saved scan
SCAN_KS = (1, 10)


def _store_answers(out: dict, key: str, res: list) -> None:
    """Every query's distances and ids as ``key/d`` and ``key/i``."""
    out[key + "/d"] = np.array([[d for d, _ in r] for r in res])
    out[key + "/i"] = np.array([[i for _, i in r] for r in res])


def save(path: str, scale: float = 4.0, n_queries: int = 512) -> int:
    """Write the arrays of the module docstring to ``path``; return their count."""
    import repro
    from perfbench.common import workload_inputs
    from repro.baselines import flat_knn, ucr_knn
    from repro.index import SearchStats, build_messi, build_sofa
    from repro.summaries.sfa import SFASummary

    X, Q = workload_inputs("LenDB", scale, n_queries, seed=1401)
    print(f"repro from {Path(repro.__file__).parent}: {len(X)} series, {len(Q)} queries")
    out = {}
    for name, build in (("sofa", build_sofa), ("messi", build_messi)):
        for leaf in sorted({leaf for leaf, _ in RUNS}):
            idx = build(X, leaf_size=leaf)
            # int64 positions compare equal across a change of perm's dtype
            out[f"{name}/{leaf}/perm"] = idx.perm.astype(np.int64)
            for field in ("words_perm", "leaf_lo", "leaf_hi", "leaf_start"):
                out[f"{name}/{leaf}/{field}"] = getattr(idx, field)
            for k in [k for run_leaf, k in RUNS if run_leaf == leaf]:
                res, stats = [], []
                for q in Q:
                    st = SearchStats()
                    res.append(idx.knn(q, k=k, stats=st))
                    stats.append(st)
                key = f"{name}/{leaf}/{k}"
                _store_answers(out, key, res)
                for f in dataclasses.fields(SearchStats):
                    out[f"{key}/{f.name}"] = np.array([getattr(st, f.name) for st in stats])
    depth = build_sofa(X, summary=SFASummary.fit(X[::100], binning="equi_depth"))
    out["sofa_equi_depth/words"] = depth.summary.words(X)
    out["sofa_equi_depth/perm"] = depth.perm.astype(np.int64)
    for field in ("words_perm", "leaf_lo", "leaf_hi"):
        out[f"sofa_equi_depth/{field}"] = getattr(depth, field)
    for name, scan in (("ucr", ucr_knn), ("flat", flat_knn)):
        for k in SCAN_KS:
            _store_answers(out, f"{name}/{k}", scan(X, Q, k=k))
    np.savez_compressed(path, **out)
    return len(out)


def compare(path_a: str, path_b: str) -> list[str]:
    """One line per array of either file that is not bit-equal in the other."""
    a, b = np.load(path_a), np.load(path_b)
    lines = [f"{k}: only in {path_a if k in a.files else path_b}"
             for k in sorted(set(a.files) ^ set(b.files))]
    for k in sorted(set(a.files) & set(b.files)):
        x, y = a[k], b[k]
        if x.dtype != y.dtype or x.shape != y.shape:
            lines.append(f"{k}: {x.dtype}{list(x.shape)} vs {y.dtype}{list(y.shape)}")
        elif x.tobytes() != y.tobytes():
            x64, y64 = x.astype(np.float64), y.astype(np.float64)
            lines.append(f"{k}: {np.count_nonzero(x != y)} of {x.size} differ, "
                         f"max |diff| {np.abs(x64 - y64).max():.6g}, "
                         f"mean {x64.mean():.6g} -> {y64.mean():.6g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sv = sub.add_parser("save", help="save this tree's arrays")
    sv.add_argument("out")
    sv.add_argument("--scale", type=float, default=4.0, help="LenDB analog scale")
    sv.add_argument("--queries", type=int, default=512)
    cp = sub.add_parser("compare", help="name the arrays that differ")
    cp.add_argument("a")
    cp.add_argument("b")
    args = ap.parse_args(argv)
    if args.mode == "save":
        print(save(args.out, args.scale, args.queries), "arrays saved to", args.out)
        return 0
    lines = compare(args.a, args.b)
    for line in lines:
        print(line)
    print(len(set(np.load(args.a).files) | set(np.load(args.b).files)),
          "arrays compared;", len(lines), "differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
