"""EEG preprocessing and augmentation.

Fixed pipeline: band-pass 1-75 Hz, 60 Hz notch, resample to 256 Hz, segment
into non-overlapping 5 s windows of shape (22, 1280), per-channel quartile
normalization. Also provides the low-pass reconstruction target and the
frequency-domain augmentations used for contrastive view generation.

All operations are pure functions of (input, parameters, seed); filters run
zero-phase (forward-backward) over a periodic extension of the signal, so
windows stay alignment-free and narrowband filters settle outside the
retained segment. The filters import scipy.signal themselves, so importing
this module (and the CLI) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TARGET_RATE_HZ = 256.0
WINDOW_CHANNELS = 22
WINDOW_SAMPLES = 1280
IQR_EPS = 1e-8
BANDPASS_ORDER = 4  # Butterworth prototype order of the band-pass
TARGET_CUTOFF_HZ = 40.0  # low-pass corner of the reconstruction target


class FilterSpecError(ValueError):
    """Cutoff outside the valid (0, fs/2) range or otherwise invalid filter."""


@dataclass(frozen=True)
class RawRecording:
    """Multichannel recording; samples is (channels, n) in microvolts."""
    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", s)
        if s.ndim != 2 or s.shape[0] < 1:
            raise ValueError("samples must be a (channels, n) array with >= 1 channel")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def channel_count(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class Window:
    """One normalized 5 s segment, shape (22, 1280)."""
    data: np.ndarray
    source_offset: int

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", d)
        if not np.all(np.isfinite(d)):
            raise ValueError("window contains non-finite values")


def _check_cutoffs(fs, *cutoffs):
    nyq = fs / 2.0
    for c in cutoffs:
        if not 0.0 < c < nyq:
            raise FilterSpecError(f"cutoff {c} Hz outside (0, {nyq}) for fs={fs}")


def _zero_phase(sos, x):
    """Forward-backward filtering on a periodic extension.

    One full copy of the signal on each side gives narrowband filters (the
    Q=30 notch in particular) room to settle from zero initial conditions
    before the retained segment; reflection padding leaves several percent of
    ringing on pure tones.
    """
    from scipy import signal as sps
    n = x.shape[-1]
    if n == 0:
        return x.copy()
    xp = np.concatenate([x, x, x], axis=-1)
    y = sps.sosfiltfilt(sos, xp, axis=-1, padtype=None)
    return y[..., n:2 * n]


def bandpass(x: np.ndarray, fs: float, lo_hz: float = 1.0, hi_hz: float = 75.0) -> np.ndarray:
    """Zero-phase Butterworth band-pass along the last axis."""
    from scipy import signal as sps
    if not lo_hz < hi_hz:
        raise FilterSpecError(f"band edges out of order: {lo_hz} >= {hi_hz}")
    _check_cutoffs(fs, lo_hz, hi_hz)
    sos = sps.butter(BANDPASS_ORDER, [lo_hz, hi_hz], btype="bandpass", fs=fs, output="sos")
    return _zero_phase(sos, np.asarray(x, dtype=np.float64))


def notch(x: np.ndarray, fs: float, f0_hz: float = 60.0, q_factor: float = 30.0) -> np.ndarray:
    """Zero-phase IIR notch (Q=30) removing narrowband interference."""
    from scipy import signal as sps
    _check_cutoffs(fs, f0_hz)
    b, a = sps.iirnotch(f0_hz, q_factor, fs=fs)
    sos = sps.tf2sos(b, a)
    return _zero_phase(sos, np.asarray(x, dtype=np.float64))


def lowpass_target(x: np.ndarray, fs: float = TARGET_RATE_HZ) -> np.ndarray:
    """Reconstruction target: the input with content above 40 Hz suppressed,
    by a zero-phase 2nd-order Butterworth low-pass (Q = 1/sqrt(2), bilinear)."""
    from scipy import signal as sps
    _check_cutoffs(fs, TARGET_CUTOFF_HZ)
    sos = sps.butter(2, TARGET_CUTOFF_HZ, btype="low", fs=fs, output="sos")
    return _zero_phase(sos, np.asarray(x, dtype=np.float64))


def resample(x: np.ndarray, fs_in: float, fs_out: float = TARGET_RATE_HZ) -> np.ndarray:
    """Polyphase band-limited resampling (Kaiser window, beta=8).

    Output length is round(n * fs_out / fs_in); an identity rate is a
    bit-exact passthrough.
    """
    from scipy import signal as sps
    if fs_out <= 0:
        raise FilterSpecError("target rate must be positive")
    x = np.asarray(x, dtype=np.float64)
    if fs_in == fs_out:
        return x.copy()
    ratio = Fraction(fs_out) / Fraction(fs_in)
    ratio = ratio.limit_denominator(10_000)
    y = sps.resample_poly(x, ratio.numerator, ratio.denominator, axis=-1,
                          window=("kaiser", 8.0))
    n_expected = int(round(x.shape[-1] * fs_out / fs_in))
    if y.shape[-1] > n_expected:
        y = y[..., :n_expected]
    elif y.shape[-1] < n_expected:
        pad = np.zeros(x.shape[:-1] + (n_expected - y.shape[-1],))
        y = np.concatenate([y, pad], axis=-1)
    return y


def segment(rec: RawRecording) -> list[Window]:
    """Split a 22-channel, 256 Hz recording into non-overlapping 1280-sample windows.

    The trailing remainder shorter than one window is dropped.
    """
    if rec.channel_count != WINDOW_CHANNELS:
        raise ValueError(f"expected {WINDOW_CHANNELS} channels, got {rec.channel_count}")
    if rec.sample_rate_hz != TARGET_RATE_HZ:
        raise ValueError(f"expected {TARGET_RATE_HZ} Hz input, got {rec.sample_rate_hz}")
    n = rec.samples.shape[1]
    count = n // WINDOW_SAMPLES
    return [
        Window(rec.samples[:, i * WINDOW_SAMPLES:(i + 1) * WINDOW_SAMPLES].copy(),
               source_offset=i * WINDOW_SAMPLES)
        for i in range(count)
    ]


def channel_quartiles(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """25th/75th percentiles per channel (linear interpolation between ranks)."""
    q = np.percentile(np.asarray(x, dtype=np.float64), [25.0, 75.0], axis=-1)
    return q[0], q[1]


def iqr_normalize(x: np.ndarray, q_lower: np.ndarray | None = None,
                  q_upper: np.ndarray | None = None) -> np.ndarray:
    """Per-channel quartile rescaling: (x - q25) / ((q75 - q25) + 1e-8).

    Maps the lower quartile to 0 and the upper quartile to 1. Statistics are
    computed per channel over the last axis unless provided (e.g. to reuse
    whole-recording quartiles across windows).
    """
    x = np.asarray(x, dtype=np.float64)
    if q_lower is None or q_upper is None:
        q_lower, q_upper = channel_quartiles(x)
    q_lower = np.asarray(q_lower, dtype=np.float64)[..., None]
    q_upper = np.asarray(q_upper, dtype=np.float64)[..., None]
    return (x - q_lower) / ((q_upper - q_lower) + IQR_EPS)


def ft_surrogate(x: np.ndarray, seed: int) -> np.ndarray:
    """Phase-randomized surrogate preserving each channel's magnitude spectrum.

    Interior rFFT bins get an independent uniform phase rotation; the DC and
    Nyquist bins are kept, so the output is real with |DFT| unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    spec = np.fft.rfft(x, axis=-1)
    n = x.shape[-1]
    n_interior = spec.shape[-1] - 2 if n % 2 == 0 else spec.shape[-1] - 1
    if n_interior > 0:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=x.shape[:-1] + (n_interior,))
        spec[..., 1:1 + n_interior] *= np.exp(1j * phases)
    return np.fft.irfft(spec, n=n, axis=-1)


def frequency_shift(x: np.ndarray, fs: float, delta_hz: float) -> np.ndarray:
    """Shift all spectral content by delta_hz via analytic-signal modulation."""
    from scipy import signal as sps
    if abs(delta_hz) >= fs / 4.0:
        raise FilterSpecError(f"|delta_hz| must be below fs/4 = {fs / 4.0}")
    x = np.asarray(x, dtype=np.float64)
    if delta_hz == 0.0:
        return x.copy()
    analytic = sps.hilbert(x, axis=-1)
    t = np.arange(x.shape[-1]) / fs
    return np.real(analytic * np.exp(2j * np.pi * delta_hz * t))


def add_gaussian_noise(x: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Additive white Gaussian noise with standard deviation sigma."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if sigma == 0.0:
        return x.copy()
    rng = np.random.default_rng(seed)
    return x + rng.normal(0.0, sigma, size=x.shape)


IQR_SCOPES = ("window", "recording")  # the quartiles of each window | of the recording


@dataclass(frozen=True)
class PreprocessConfig:
    bandpass_lo_hz: float = 1.0
    bandpass_hi_hz: float = 75.0
    notch_hz: float = 60.0
    notch_q: float = 30.0
    iqr_scope: str = "window"  # one of IQR_SCOPES

    def __post_init__(self):
        if self.iqr_scope not in IQR_SCOPES:
            raise FilterSpecError(f"'iqr_scope' must be one of {IQR_SCOPES}, "
                                  f"not {self.iqr_scope!r}")
        if not self.notch_q > 0:
            raise FilterSpecError(f"'notch_q' must be positive, not {self.notch_q!r}")


def preprocess_recording(rec: RawRecording, cfg: PreprocessConfig = PreprocessConfig()
                         ) -> tuple[list[Window], list[dict]]:
    """Full pipeline: filter, notch, resample, segment, normalize.

    Returns the normalized windows plus one provenance record per window
    (source offset and the quartiles used for normalization).
    """
    x = rec.samples
    if x.shape[1] == 0:
        return [], []
    x = bandpass(x, rec.sample_rate_hz, cfg.bandpass_lo_hz, cfg.bandpass_hi_hz)
    if cfg.notch_hz:
        x = notch(x, rec.sample_rate_hz, cfg.notch_hz, cfg.notch_q)
    x = resample(x, rec.sample_rate_hz, TARGET_RATE_HZ)
    windows = segment(RawRecording(x, TARGET_RATE_HZ))

    rec_q = channel_quartiles(x) if cfg.iqr_scope == "recording" else None
    out, provenance = [], []
    for w in windows:
        if cfg.iqr_scope == "recording":
            q_lo, q_hi = rec_q
        else:
            q_lo, q_hi = channel_quartiles(w.data)
        out.append(Window(iqr_normalize(w.data, q_lo, q_hi), w.source_offset))
        provenance.append({
            "index": len(out) - 1,
            "source_offset": int(w.source_offset),
            "q_lower": [float(v) for v in np.atleast_1d(q_lo)],
            "q_upper": [float(v) for v in np.atleast_1d(q_hi)],
        })
    return out, provenance
