"""Registry of the paper's 17 benchmark datasets (Table I) as synthetic analogs.

Each entry records the paper's size/length and a generator spec whose
spectral profile matches the paper's characterization (Section V-D lists
Meier2019JGR, Astro, Iquique, NEIC, ETHZ, PNW, SALD as *low* frequency
variance; LenDB and SCEDC are the big-speedup *high*-frequency cases).
``repro_n`` at scale 1.0 keeps size *tiers* (100M -> 20k, ~35M -> 12k,
~5M -> 6k, ~0.5M -> 3k) so relative index behaviour is preserved at
laptop scale. Queries come from the same generator family with a
disjoint seed, mirroring the paper's held-out 100-query sets.
"""
from dataclasses import dataclass

import numpy as np

from repro.core.znorm import znormalize
from repro.datasets import generators as G


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    paper_n: int
    length: int
    generator: str
    kwargs: dict
    repro_n: int
    domain: str  # seismology / astronomy / neuroscience / vector
    freq_profile: str  # "low" | "high" | "flat"


#: prototype series per dataset, shared by its indexing and query sets
N_CLUSTERS = 256
#: within-cluster noise: a drawn series' noise std over its prototype's std
WITHIN_NOISE = 0.3


def _tier(paper_n: int) -> int:
    if paper_n >= 80_000_000:
        return 20_000
    if paper_n >= 20_000_000:
        return 12_000
    if paper_n >= 2_000_000:
        return 6_000
    return 3_000


def _spec(name, paper_n, length, generator, kwargs, domain, freq):
    return DatasetSpec(name=name, paper_n=paper_n, length=length,
                       generator=generator, kwargs=kwargs,
                       repro_n=_tier(paper_n), domain=domain, freq_profile=freq)


REGISTRY: dict[str, DatasetSpec] = {s.name: s for s in [
    _spec("Astro", 100_000_000, 256, "random_walk", {}, "astronomy", "low"),
    _spec("BigANN", 100_000_000, 100, "vector_gaussian", {}, "vector", "flat"),
    _spec("Deep1b", 100_000_000, 96, "vector_gaussian", {}, "vector", "flat"),
    _spec("ETHZ", 4_999_932, 256, "seismic",
          {"dominant_freq": 0.012, "noise": 0.15}, "seismology", "low"),
    _spec("Iquique", 578_853, 256, "seismic",
          {"dominant_freq": 0.008, "noise": 0.1}, "seismology", "low"),
    _spec("ISC_EHB_DepthPhases", 100_000_000, 256, "seismic",
          {"dominant_freq": 0.04, "noise": 0.25}, "seismology", "high"),
    _spec("LenDB", 37_345_260, 256, "seismic",
          {"dominant_freq": 0.055, "noise": 0.3}, "seismology", "high"),
    _spec("Meier2019JGR", 6_361_998, 256, "seismic",
          {"dominant_freq": 0.006, "noise": 0.1}, "seismology", "low"),
    _spec("NEIC", 93_473_541, 256, "seismic",
          {"dominant_freq": 0.01, "noise": 0.15}, "seismology", "low"),
    _spec("OBS", 15_508_794, 256, "seismic",
          {"dominant_freq": 0.045, "noise": 0.35}, "seismology", "high"),
    _spec("OBST2024", 4_160_286, 256, "seismic",
          {"dominant_freq": 0.05, "noise": 0.3}, "seismology", "high"),
    _spec("PNW", 31_982_766, 256, "seismic",
          {"dominant_freq": 0.014, "noise": 0.15}, "seismology", "low"),
    _spec("SALD", 100_000_000, 128, "smooth_noise", {"window": 16},
          "neuroscience", "low"),
    _spec("SCEDC", 100_000_000, 256, "seismic",
          {"dominant_freq": 0.06, "noise": 0.25}, "seismology", "high"),
    _spec("SIFT1b", 100_000_000, 128, "vector_gaussian", {}, "vector", "flat"),
    _spec("STEAD", 87_323_433, 256, "seismic",
          {"dominant_freq": 0.042, "noise": 0.3}, "seismology", "high"),
    _spec("TXED", 35_851_641, 256, "seismic",
          {"dominant_freq": 0.048, "noise": 0.25}, "seismology", "high"),
]}

_QUERY_SEED_OFFSET = 10_000


def _stable_hash(name: str) -> int:
    """Process-independent name hash (Python's ``hash`` is salted)."""
    import zlib

    return zlib.crc32(name.encode()) % 1000


def _prototypes(spec: DatasetSpec, seed: int) -> np.ndarray:
    """The dataset's cluster prototype series — shared by the indexing set
    and the query set, like real collections where queries resemble stored
    events (seismic phase windows, repeated descriptors, ...)."""
    gen = G.GENERATORS[spec.generator]
    return np.asarray(
        gen(N_CLUSTERS, spec.length, seed=seed + _stable_hash(spec.name),
            **spec.kwargs), dtype=np.float64)


def _draw(protos: np.ndarray, n: int, noise_seed: int) -> np.ndarray:
    """Draw ``n`` series: a random prototype plus within-cluster noise.

    Without this redundancy every series is near-orthogonal to every
    other, the 1-NN distance equals the average distance, and *no* index
    (the paper's included) can prune — real benchmark collections are
    highly redundant, which is what makes indexing pay off.
    """
    g = np.random.default_rng(noise_seed)
    assign = g.integers(0, len(protos), n)
    scale = protos.std(axis=1)[assign][:, None] * WITHIN_NOISE
    x = protos[assign] + scale * g.standard_normal((n, protos.shape[1]))
    return x.astype(np.float32)


def make_dataset(name: str, *, scale: float = 1.0, seed: int = 7) -> np.ndarray:
    """Generate the indexing collection for a registry dataset.

    ``scale`` multiplies the repro-tier size (tests use ~0.05, the table
    jobs 1.0). Returns float32 (N, length), z-normalized.
    """
    spec = REGISTRY[name]
    n = max(16, int(round(spec.repro_n * scale)))
    return znormalize(_draw(_prototypes(spec, seed), n,
                            noise_seed=seed + _stable_hash(name) + 1))


def make_queries(name: str, n_queries: int = 100, *, scale: float = 1.0,
                 seed: int = 7) -> np.ndarray:
    """Held-out query series: same prototypes, disjoint noise draws —
    the paper's protocol of query sets kept separate from indexed data."""
    spec = REGISTRY[name]
    return znormalize(_draw(_prototypes(spec, seed), n_queries,
                            noise_seed=seed + _stable_hash(name) + _QUERY_SEED_OFFSET))


# --------------------------------------------------------------------------
# UCR-archive-like suite for the Table V TLB ablation: 20 small datasets
# spanning the archive's diversity of shapes/spectra, of series of
# ``UCR_LENGTH`` values (64 for ``u_walk_short``).
UCR_LENGTH = 128
_UCR_LIKE = [
    ("u_walk", "random_walk", {}),
    ("u_walk_drift", "random_walk", {"drift": 0.05}),
    ("u_smooth8", "smooth_noise", {"window": 8}),
    ("u_smooth32", "smooth_noise", {"window": 32}),
    ("u_noise", "vector_gaussian", {}),
    ("u_seis_lo", "seismic", {"dominant_freq": 0.05, "noise": 0.2}),
    ("u_seis_mid", "seismic", {"dominant_freq": 0.2, "noise": 0.4}),
    ("u_seis_hi", "seismic", {"dominant_freq": 0.4, "noise": 0.6}),
    ("u_sine_lo", "sine_mix", {"freq_lo": 0.005, "freq_hi": 0.05}),
    ("u_sine_mid", "sine_mix", {"freq_lo": 0.05, "freq_hi": 0.15}),
    ("u_sine_hi", "sine_mix", {"freq_lo": 0.2, "freq_hi": 0.45}),
    ("u_chirp", "chirp", {}),
    ("u_chirp_fast", "chirp", {"f0": 0.1, "f1": 0.45}),
    ("u_square", "square_wave", {}),
    ("u_square_fast", "square_wave", {"period_lo": 4, "period_hi": 16}),
    ("u_ar_smooth", "ar1", {"phi": 0.95}),
    ("u_ar_rough", "ar1", {"phi": -0.6}),
    ("u_ar_mid", "ar1", {"phi": 0.5}),
    ("u_mix_sine_noise", "sine_mix",
     {"freq_lo": 0.02, "freq_hi": 0.3, "noise": 0.5}),
    ("u_walk_short", "random_walk", {}),
]


def ucr_like(n_train: int = 200, n_test: int = 50,
             seed: int = 11) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The UCR-archive stand-in: (name, train, test) triples, z-normalized.

    Train plays the archive's training split (used to learn SFA bins),
    test plays the query split — matching the paper's TLB protocol.
    """
    out = []
    for i, (name, gen_name, kwargs) in enumerate(_UCR_LIKE):
        gen = G.GENERATORS[gen_name]
        ln = 64 if name.endswith("_short") else UCR_LENGTH
        train = znormalize(gen(n_train, ln, seed=seed + 2 * i, **kwargs))
        test = znormalize(gen(n_test, ln, seed=seed + 2 * i + 1, **kwargs))
        out.append((name, train, test))
    return out
