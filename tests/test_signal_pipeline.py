import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from femba import signal_pipeline as sp

FS = 256.0
N = 1280


def sine(freq, n=N, fs=FS, phase=0.0):
    return np.sin(2 * np.pi * freq * np.arange(n) / fs + phase)[None, :]


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def fitted_amplitude(y, freq, fs=FS):
    """Least-squares amplitude of a single tone (the analytic-projection oracle)."""
    t = np.arange(y.shape[-1]) / fs
    c, s = np.cos(2 * np.pi * freq * t), np.sin(2 * np.pi * freq * t)
    return 2.0 * np.hypot(y @ c, y @ s).max() / y.shape[-1]


def designed_gain(sos, freq, fs=FS):
    """Magnitude-response oracle: |H(f)|^2 for a zero-phase pass."""
    _, h = sps.sosfreqz(sos, worN=[freq], fs=fs)
    return float(np.abs(h[0]) ** 2)


class TestBandpass:
    def test_dc_rejected(self):
        out = sp.bandpass(np.full((2, N), 3.25), FS)
        assert np.abs(out).max() < 1e-8

    def test_10hz_preserved(self):
        sos = sps.butter(4, [1, 75], btype="bandpass", fs=FS, output="sos")
        gain = designed_gain(sos, 10.0)
        out = sp.bandpass(sine(10.0), FS)
        amp = fitted_amplitude(out, 10.0)
        assert amp == pytest.approx(gain, rel=0.05)
        assert abs(amp - 1.0) < 0.05

    def test_120hz_attenuated(self):
        out = sp.bandpass(sine(120.0), FS)
        atten_db = -20 * np.log10(max(fitted_amplitude(out, 120.0), 1e-12))
        assert atten_db >= 20.0

    def test_bad_cutoffs(self):
        with pytest.raises(sp.FilterSpecError):
            sp.bandpass(sine(10.0), FS, 1.0, 200.0)
        with pytest.raises(sp.FilterSpecError):
            sp.bandpass(sine(10.0), FS, 75.0, 1.0)


class TestNotch:
    def test_60hz_removed(self):
        x = sine(60.0, phase=0.7)
        out = sp.notch(x, FS)
        assert rms(out) <= 0.03 * rms(x)

    def test_10hz_preserved(self):
        x = sine(10.0)
        out = sp.notch(x, FS)
        assert rms(out) == pytest.approx(rms(x), rel=0.03)

    def test_zero_signal(self):
        out = sp.notch(np.zeros((3, N)), FS)
        assert np.all(out == 0)

    def test_neighbor_bands(self):
        for freq in (55.0, 65.0):
            out = sp.notch(sine(freq), FS)
            atten_db = -20 * np.log10(fitted_amplitude(out, freq))
            assert atten_db < 3.0


class TestResample:
    def test_length_arithmetic(self):
        x = np.zeros((2, 2560))
        assert sp.resample(x, 512.0, 256.0).shape == (2, 1280)

    def test_identity_passthrough(self):
        x = np.random.default_rng(0).normal(size=(2, 777))
        out = sp.resample(x, 256.0, 256.0)
        assert np.array_equal(out, x)

    def test_sine_tracks_analytic(self):
        x = np.sin(2 * np.pi * 5 * np.arange(2560) / 512.0)[None, :]
        out = sp.resample(x, 512.0, 256.0)
        ref = np.sin(2 * np.pi * 5 * np.arange(1280) / 256.0)
        assert np.corrcoef(out[0], ref)[0, 1] >= 0.999

    def test_fractional_length_rounding(self):
        # 300 -> 256 Hz on 100 samples: exact ratio gives 85.33 output
        # samples, so the length contract rounds down to 85
        x = np.zeros((1, 100))
        assert sp.resample(x, 300.0, 256.0).shape == (1, 85)
        x = np.zeros((2, 999))
        assert sp.resample(x, 250.0, 256.0).shape == (2, round(999 * 256 / 250))


class TestSegment:
    def _rec(self, n):
        return sp.RawRecording(np.arange(22 * n, dtype=float).reshape(22, n), FS)

    def test_floor_division(self):
        wins = sp.segment(self._rec(3845))
        assert len(wins) == 3
        assert [w.source_offset for w in wins] == [0, 1280, 2560]

    def test_below_one_window(self):
        assert sp.segment(self._rec(1279)) == []

    def test_exactly_one(self):
        wins = sp.segment(self._rec(1280))
        assert len(wins) == 1 and wins[0].source_offset == 0

    def test_wrong_channel_count(self):
        with pytest.raises(ValueError):
            sp.segment(sp.RawRecording(np.zeros((21, 1280)), FS))

    def test_concatenation_covers_prefix(self):
        rec = self._rec(3000)
        wins = sp.segment(rec)
        joined = np.concatenate([w.data for w in wins], axis=1)
        assert np.array_equal(joined, rec.samples[:, :2560])


class TestIqrNormalize:
    def test_hand_case(self):
        out = sp.iqr_normalize(np.array([[0.0, 1.0, 2.0, 3.0, 4.0]]))
        expected = (np.array([0.0, 1, 2, 3, 4]) - 1.0) / (2.0 + 1e-8)
        np.testing.assert_allclose(out[0], expected, rtol=0, atol=1e-12)

    def test_constant_channel(self):
        out = sp.iqr_normalize(np.full((1, 64), 5.0))
        assert np.all(out == 0)

    def test_fixed_point(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 1280))
        q25, q75 = np.percentile(x, [25, 75], axis=-1)
        x = (x - q25[:, None]) / (q75 - q25)[:, None]
        out = sp.iqr_normalize(x)
        np.testing.assert_allclose(out, x, atol=1e-7)

    def test_quartiles_map_to_0_and_1(self):
        rng = np.random.default_rng(6)
        x = rng.normal(2.0, 3.0, size=(22, 1280))
        out = sp.iqr_normalize(x)
        q_lo, q_hi = np.percentile(out, [25, 75], axis=-1)
        np.testing.assert_allclose(q_lo, 0.0, atol=1e-7)
        np.testing.assert_allclose(q_hi, 1.0, atol=1e-7)


class TestLowpassTarget:
    def test_unit_dc_gain(self):
        out = sp.lowpass_target(np.full((2, N), 3.7))
        np.testing.assert_allclose(out, 3.7, atol=3.7e-6)

    def test_100hz_attenuated(self):
        out = sp.lowpass_target(sine(100.0))
        atten_db = -20 * np.log10(fitted_amplitude(out, 100.0))
        assert atten_db >= 12.0

    def test_5hz_preserved(self):
        out = sp.lowpass_target(sine(5.0))
        assert fitted_amplitude(out, 5.0) == pytest.approx(1.0, rel=0.02)

    def test_monotone_above_cutoff(self):
        sos = sps.butter(2, 40, btype="low", fs=FS, output="sos")
        freqs = np.linspace(41, 127, 64)
        _, h = sps.sosfreqz(sos, worN=freqs, fs=FS)
        mags = np.abs(h)
        assert np.all(np.diff(mags) < 0)


class TestFtSurrogate:
    def test_zero_signal(self):
        out = sp.ft_surrogate(np.zeros((2, N)), seed=3)
        assert np.all(out == 0)

    def test_magnitude_preserved(self):
        x = np.random.default_rng(2).normal(size=(4, N))
        out = sp.ft_surrogate(x, seed=9)
        m0 = np.abs(np.fft.rfft(x, axis=-1))
        m1 = np.abs(np.fft.rfft(out, axis=-1))
        assert np.max(np.abs(m1 - m0) / np.maximum(m0, 1e-9)) <= 1e-5

    def test_deterministic(self):
        x = np.random.default_rng(2).normal(size=(2, N))
        a = sp.ft_surrogate(x, seed=123)
        b = sp.ft_surrogate(x, seed=123)
        assert np.array_equal(a, b)

    def test_energy_preserved(self):
        x = np.random.default_rng(4).normal(size=(3, N))
        out = sp.ft_surrogate(x, seed=1)
        e0 = np.sum(x ** 2, axis=-1)
        e1 = np.sum(out ** 2, axis=-1)
        assert np.max(np.abs(e1 - e0) / e0) <= 1e-5


class TestFrequencyShift:
    def test_zero_delta_identity(self):
        x = np.random.default_rng(1).normal(size=(2, N))
        out = sp.frequency_shift(x, FS, 0.0)
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_peak_moves(self):
        out = sp.frequency_shift(sine(10.0), FS, 2.0)
        spec = np.abs(np.fft.rfft(out[0]))
        assert np.argmax(spec) * FS / N == pytest.approx(12.0, abs=0.21)

    def test_zero_signal(self):
        out = sp.frequency_shift(np.zeros((1, N)), FS, 3.0)
        assert np.all(out == 0)

    def test_delta_bound(self):
        with pytest.raises(sp.FilterSpecError):
            sp.frequency_shift(sine(10.0), FS, 70.0)


class TestGaussianNoise:
    def test_sigma_zero_identity(self):
        x = np.random.default_rng(0).normal(size=(2, N))
        assert np.array_equal(sp.add_gaussian_noise(x, 0.0, seed=7), x)

    def test_reproducible(self):
        x = np.zeros((22, N))
        a = sp.add_gaussian_noise(x, 0.5, seed=13)
        b = sp.add_gaussian_noise(x, 0.5, seed=13)
        assert np.array_equal(a, b)

    def test_sample_std(self):
        out = sp.add_gaussian_noise(np.zeros((22, N)), 1.0, seed=21)
        assert 0.95 <= out.std() <= 1.05
        assert abs(out.mean()) < 0.02


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 10))
def test_filters_are_linear(a, b, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(2, 512)), rng.normal(size=(2, 512))
    for f in (lambda v: sp.bandpass(v, FS), lambda v: sp.notch(v, FS),
              lambda v: sp.lowpass_target(v)):
        lhs = f(a * x + b * y)
        rhs = a * f(x) + b * f(y)
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() / scale < 1e-6


def test_preprocess_recording_end_to_end():
    rng = np.random.default_rng(8)
    raw = rng.normal(0, 20, size=(22, 3000)) + 5 * sine(60.0, 3000)[0]
    rec = sp.RawRecording(raw, 256.0)
    wins, prov = sp.preprocess_recording(rec)
    assert len(wins) == 2 and len(prov) == 2
    for w, p in zip(wins, prov):
        assert w.data.shape == (22, 1280)
        assert np.all(np.isfinite(w.data))
        assert len(p["q_lower"]) == 22

    # per-recording quartiles option
    wins_r, prov_r = sp.preprocess_recording(
        rec, sp.PreprocessConfig(iqr_scope="recording"))
    assert prov_r[0]["q_lower"] == prov_r[1]["q_lower"]


def test_preprocess_empty_recording():
    rec = sp.RawRecording(np.zeros((22, 0)), 256.0)
    wins, prov = sp.preprocess_recording(rec)
    assert wins == [] and prov == []

