"""Seeded generators for raw (un-normalized) data series, float32 (N, n).

Each generator controls the property the paper identifies as decisive
(Sections I, V-D): where the signal's variance sits in the frequency
spectrum. Low-frequency collections (random walks, smoothed noise) are
where SAX/PAA summarize well; high-frequency collections (seismic
wavelet bursts, noisy oscillations) are where PAA collapses to a flat
line and SFA's variance-selected Fourier components win; vector-style
collections (iid values) have flat spectra.
"""
import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_walk(n_series: int, length: int, seed: int = 0, *,
                drift: float = 0.0) -> np.ndarray:
    """Gaussian random walks — energy concentrated in low frequencies
    (Astro/AGN-variability analog)."""
    g = _rng(seed)
    steps = g.standard_normal((n_series, length)).astype(np.float32) + drift
    return np.cumsum(steps, axis=1, dtype=np.float32)


def smooth_noise(n_series: int, length: int, seed: int = 0, *,
                 window: int = 16) -> np.ndarray:
    """Hann-smoothed Gaussian noise — band-limited low-frequency series
    (SALD fMRI analog)."""
    g = _rng(seed)
    x = g.standard_normal((n_series, length + window))
    w = np.hanning(window)
    w /= w.sum()
    out = np.empty((n_series, length), dtype=np.float32)
    for i in range(n_series):
        out[i] = np.convolve(x[i], w, mode="valid")[:length]
    return out


def vector_gaussian(n_series: int, length: int, seed: int = 0) -> np.ndarray:
    """iid N(0,1) values — unordered vector-data analog (BigANN/Deep1b/
    SIFT1b): flat spectrum, every frequency equally energetic."""
    return _rng(seed).standard_normal((n_series, length)).astype(np.float32)


def seismic(n_series: int, length: int, seed: int = 0, *,
            dominant_freq: float = 0.05, noise: float = 0.15) -> np.ndarray:
    """Seismogram-like windows: noise floor + P-wave burst (amplitude 1) +
    S-wave burst (amplitude 2), each an exponentially-decaying oscillation.

    ``dominant_freq`` is the burst carrier in cycles/sample. "High
    frequency" in the paper's sense means high *relative to PAA's 16
    segments*: any component with k = f*length above ~8 cycles/window is
    averaged away by segment means, so f in [0.035, 0.06] (k ~ 9..15 for
    length 256) reproduces the SAX-failure regime while staying within
    the first 16 Fourier coefficients SFA selects from; f in
    [0.005, 0.015] (k ~ 1..4) reproduces the low-frequency datasets
    where PAA works (Meier2019JGR/Iquique/...).
    """
    g = _rng(seed)
    t = np.arange(length, dtype=np.float64)
    out = np.empty((n_series, length), dtype=np.float32)
    for i in range(n_series):
        x = noise * g.standard_normal(length)
        p_on = g.integers(length // 8, length // 2)
        s_on = g.integers(p_on + length // 8, max(p_on + length // 8 + 1, 3 * length // 4))
        for onset, amp in ((p_on, 1.0), (s_on, 2.0)):
            f = dominant_freq * (0.9 + 0.2 * g.random())  # +-10% carrier jitter
            phase = 2 * np.pi * g.random()
            env = np.exp(-(t - onset) / (length / 4.0)) * (t >= onset)
            x += amp * env * np.sin(2 * np.pi * f * t + phase)
        out[i] = x
    return out


def sine_mix(n_series: int, length: int, seed: int = 0, *,
             n_components: int = 3, freq_lo: float = 0.01,
             freq_hi: float = 0.1, noise: float = 0.1) -> np.ndarray:
    """Random sums of sinusoids in [freq_lo, freq_hi] cycles/sample."""
    g = _rng(seed)
    t = np.arange(length, dtype=np.float64)
    out = np.empty((n_series, length), dtype=np.float32)
    for i in range(n_series):
        x = noise * g.standard_normal(length)
        for _ in range(n_components):
            f = g.uniform(freq_lo, freq_hi)
            x += g.uniform(0.5, 1.5) * np.sin(2 * np.pi * f * t + 2 * np.pi * g.random())
        out[i] = x
    return out


def chirp(n_series: int, length: int, seed: int = 0, *,
          f0: float = 0.01, f1: float = 0.3) -> np.ndarray:
    """Linear chirps with random start/end frequency jitter, noise std 0.1."""
    g = _rng(seed)
    t = np.arange(length, dtype=np.float64) / length
    out = np.empty((n_series, length), dtype=np.float32)
    for i in range(n_series):
        a = f0 * (0.5 + g.random())
        b = f1 * (0.5 + g.random())
        phase = 2 * np.pi * length * (a * t + 0.5 * (b - a) * t * t)
        out[i] = np.sin(phase + 2 * np.pi * g.random()) + 0.1 * g.standard_normal(length)
    return out


def square_wave(n_series: int, length: int, seed: int = 0, *,
                period_lo: int = 8, period_hi: int = 64) -> np.ndarray:
    """Random-period square waves, noise std 0.15 — strongly non-Gaussian
    values (the paper's Figure 1 bottom pathology for SAX)."""
    g = _rng(seed)
    t = np.arange(length)
    out = np.empty((n_series, length), dtype=np.float32)
    for i in range(n_series):
        period = int(g.integers(period_lo, period_hi))
        phase = int(g.integers(0, period))
        out[i] = np.sign(np.sin(2 * np.pi * (t + phase) / period)) \
            + 0.15 * g.standard_normal(length)
    return out


def ar1(n_series: int, length: int, seed: int = 0, *, phi: float = 0.9) -> np.ndarray:
    """AR(1) processes — tunable spectral tilt via ``phi``."""
    g = _rng(seed)
    eps = g.standard_normal((n_series, length))
    out = np.empty((n_series, length), dtype=np.float64)
    out[:, 0] = eps[:, 0]
    for tt in range(1, length):
        out[:, tt] = phi * out[:, tt - 1] + eps[:, tt]
    return out.astype(np.float32)


GENERATORS = {
    "random_walk": random_walk,
    "smooth_noise": smooth_noise,
    "vector_gaussian": vector_gaussian,
    "seismic": seismic,
    "sine_mix": sine_mix,
    "chirp": chirp,
    "square_wave": square_wave,
    "ar1": ar1,
}
