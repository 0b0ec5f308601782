import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femba import model as fm
from femba import quantizer as qz

from conftest import TINY, TINY_GROUPED, make_windows


class TestQuantizeWeights:
    def test_hand_row(self):
        qt = qz.quantize_weights(np.array([[0.3, -0.45]]), bits=8)
        assert qt.scales[0] == pytest.approx(0.45 / 127)
        np.testing.assert_array_equal(qt.q[0], [85, -127])

    def test_zero_row_degenerate(self):
        qt = qz.quantize_weights(np.zeros((1, 4)), bits=8)
        assert qt.scales[0] == 1.0
        assert np.all(qt.q == 0)

    def test_round_trip_bound(self):
        rng = np.random.default_rng(0)
        for bits in (4, 8):
            w = rng.normal(size=(6, 40))
            qt = qz.quantize_weights(w, bits)
            err = np.abs(w - qt.dequant())
            assert np.all(err <= qt.scales[:, None] / 2 + 1e-12)
            qmax = (1 << (bits - 1)) - 1
            assert qt.q.min() >= -qmax and qt.q.max() <= qmax

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            qz.quantize_weights(np.ones((1, 2)), 2)


class TestTernarize:
    def test_hand_row(self):
        qt = qz.ternarize(np.array([[0.9, -0.8, 0.05]]))
        np.testing.assert_array_equal(qt.q[0], [1, -1, 0])
        assert qt.scales[0] == pytest.approx(0.85)

    def test_zero_row(self):
        qt = qz.ternarize(np.zeros((1, 5)))
        assert np.all(qt.q == 0) and qt.scales[0] == 1.0

    def test_odd_symmetry(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 20))
        a, b = qz.ternarize(w), qz.ternarize(-w)
        np.testing.assert_array_equal(b.q, -a.q)
        np.testing.assert_allclose(b.scales, a.scales)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 16))
        a, b = qz.ternarize(w), qz.ternarize(4.0 * w)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_allclose(b.scales, 4.0 * a.scales)


class TestPacking:
    def test_first_byte_layout(self):
        packed = qz.pack_ternary(np.array([-1, 0, 1, 1]))
        assert packed.words[0] & 0xFF == 0xA4

    def test_sixteen_zeros(self):
        packed = qz.pack_ternary(np.zeros(16, dtype=np.int8))
        assert packed.words[0] == 0x55555555

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            q = rng.integers(-1, 2, size=n).astype(np.int8)
            packed = qz.pack_ternary(q)
            np.testing.assert_array_equal(qz.unpack_ternary(packed), q)

    def test_matrix_shape_preserved(self):
        rng = np.random.default_rng(4)
        q = rng.integers(-1, 2, size=(7, 13)).astype(np.int8)
        packed = qz.pack_ternary(q)
        assert packed.count == 91 and len(packed.words) == 6
        np.testing.assert_array_equal(qz.unpack_ternary(packed), q)

    def test_out_of_alphabet(self):
        with pytest.raises(ValueError):
            qz.pack_ternary(np.array([0, 2]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-1, 1), min_size=1, max_size=64))
    def test_round_trip_property(self, vals):
        q = np.array(vals, dtype=np.int8)
        np.testing.assert_array_equal(qz.unpack_ternary(qz.pack_ternary(q)), q)


class TestPow2Scale:
    def test_p999_point_nine(self):
        assert qz.choose_pow2_scale(0.9, bits=8).exponent == 7

    def test_boundary_127(self):
        assert qz.choose_pow2_scale(127.0, bits=8).exponent == 0

    def test_exact_representation(self):
        act = qz.Pow2ActQuant(exponent=2)
        q = qz.quantize_activation(np.array([0.75]), act.exponent)
        assert q[0] == 3
        assert q[0] * act.scale == 0.75

    def test_degenerate_zero_stats(self):
        stats = qz.CalibStats()
        stats.add(np.zeros(100))
        assert qz.choose_pow2_scale(stats).exponent == qz.MAX_EXPONENT

    def test_empty_stats_error(self):
        with pytest.raises(qz.CalibrationError):
            qz.choose_pow2_scale(qz.CalibStats())

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(1e-6, 1e6))
    def test_coverage_property(self, p):
        n = qz.choose_pow2_scale(p, bits=8).exponent
        assert 0 <= n <= qz.MAX_EXPONENT
        if p <= 127.0:
            assert 127 * 2.0 ** (-n) >= p  # never clips below the chosen point
        if 0 < n < qz.MAX_EXPONENT:
            assert 127 * 2.0 ** (-(n + 1)) < p  # and n is the finest such grid


class TestCalibStats:
    def test_duplication_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=1000)
        a, b = qz.CalibStats(), qz.CalibStats()
        a.add(x)
        for _ in range(3):
            b.add(x)
        assert a.p_clip == b.p_clip

    def test_superset_monotone(self):
        rng = np.random.default_rng(6)
        a, b = qz.CalibStats(), qz.CalibStats()
        batches = [rng.normal(size=500) for _ in range(4)]
        for batch in batches[:2]:
            a.add(batch)
        for batch in batches:
            b.add(batch)
        assert b.p_clip >= a.p_clip


class TestCalibrate:
    def test_zero_window_takes_max_exponent(self, tiny_cfg):
        w = fm.zero_weights(tiny_cfg)
        act = qz.calibrate(w, tiny_cfg, [np.zeros((tiny_cfg.n_channels,
                                                   tiny_cfg.n_samples))])
        assert all(a.exponent == qz.MAX_EXPONENT for a in act.values())

    def test_duplicated_windows_same_scales(self, tiny_cfg, tiny_weights, tiny_windows):
        a = qz.calibrate(tiny_weights, tiny_cfg, tiny_windows[:2])
        b = qz.calibrate(tiny_weights, tiny_cfg, tiny_windows[:2] * 3)
        assert {k: v.exponent for k, v in a.items()} == \
               {k: v.exponent for k, v in b.items()}

    def test_requires_windows(self, tiny_cfg, tiny_weights):
        with pytest.raises(qz.CalibrationError):
            qz.calibrate(tiny_weights, tiny_cfg, [])

    def test_deterministic(self, tiny_cfg, tiny_weights, tiny_windows):
        a = qz.calibrate(tiny_weights, tiny_cfg, tiny_windows)
        b = qz.calibrate(tiny_weights, tiny_cfg, tiny_windows)
        assert {k: v.exponent for k, v in a.items()} == \
               {k: v.exponent for k, v in b.items()}


class TestFakeQuantForward:
    def test_fp32_is_float_forward(self, tiny_cfg, tiny_weights, tiny_windows):
        art = qz.quantize_model(tiny_weights, tiny_cfg, "fp32")
        got = qz.fake_quant_forward(tiny_weights, tiny_cfg, art, tiny_windows[0])
        want = fm.forward(tiny_windows[0], tiny_weights, tiny_cfg)
        assert np.array_equal(got, want)

    def test_w2a8_regression_locked(self, tiny_cfg, tiny_weights, tiny_windows):
        art = qz.quantize_model(tiny_weights, tiny_cfg, "w2a8", tiny_windows)
        win = make_windows(tiny_cfg, 1, seed=424242)[0]
        a = qz.fake_quant_forward(tiny_weights, tiny_cfg, art, win)
        b = qz.fake_quant_forward(tiny_weights, tiny_cfg, art, win)
        assert np.array_equal(a, b)
        np.testing.assert_allclose(
            a, [0.16949019, -0.05011492, -0.19488653], rtol=0, atol=1e-8)

    def test_w8a8_argmax_agreement(self, tiny_cfg):
        # well-scaled model: strengthen the head so the class margin dominates
        # the quantization noise, then demand high argmax agreement
        cfg = tiny_cfg
        w = fm.init_weights(cfg, seed=23)
        w.head_w = 4.0 * w.head_w
        calib = make_windows(cfg, 8, seed=31)
        art = qz.quantize_model(w, cfg, "w8a8", calib)
        agree = 0
        trials = 400
        for i in range(trials):
            win = make_windows(cfg, 1, seed=1000 + i)[0]
            f = fm.forward(win, w, cfg)
            q = qz.fake_quant_forward(w, cfg, art, win)
            agree += int(np.argmax(f) == np.argmax(q))
        assert agree / trials >= 0.95


class TestBiasCorrect:
    def test_zero_correction_when_exact(self, tiny_cfg, tiny_windows):
        # quantization-error-free model: weights already on the int8 grid and
        # generous activation exponents make the fake-quant path exact
        w = fm.zero_weights(tiny_cfg)
        art = qz.quantize_model(w, tiny_cfg, "w8a8",
                                [np.zeros((tiny_cfg.n_channels, tiny_cfg.n_samples))])
        corr = qz.bias_correct(w, tiny_cfg, art,
                               [np.zeros((tiny_cfg.n_channels, tiny_cfg.n_samples))])
        for delta in corr.values():
            np.testing.assert_allclose(delta, 0.0, atol=1e-12)

    def test_injected_offset_removed(self, tiny_cfg, tiny_weights, tiny_windows):
        import copy
        w = copy.deepcopy(tiny_weights)
        art = qz.quantize_model(w, tiny_cfg, "w8a8", tiny_windows)
        # inject a constant per-channel offset into the fake-quant path only
        art.biases["blocks.0.fwd.conv"] = art.biases["blocks.0.fwd.conv"] + 0.37
        corr = qz.bias_correct(w, tiny_cfg, art, tiny_windows[:2])
        # the conv layer's correction must cancel the injected offset exactly
        # relative to what it would have been without it
        art2 = qz.quantize_model(w, tiny_cfg, "w8a8", tiny_windows)
        corr2 = qz.bias_correct(w, tiny_cfg, art2, tiny_windows[:2])
        np.testing.assert_allclose(
            corr["blocks.0.fwd.conv"], corr2["blocks.0.fwd.conv"] - 0.37, atol=1e-9)

    @pytest.mark.parametrize("cfg", [TINY, TINY_GROUPED], ids=["tiny", "grouped"])
    def test_post_correction_mean_error(self, cfg):
        # the grouped config's tokenizer emits n_groups = 2 tokens per patch
        weights = fm.init_weights(cfg, seed=11)
        windows = make_windows(cfg, 6, seed=3)
        art = qz.quantize_model(weights, cfg, "w8a8", windows)
        qz.bias_correct(weights, cfg, art, windows[:3])
        # recompute per-layer mean float-vs-fakequant error; each should be ~0
        float_traces = [fm.forward_with_trace(win, weights, cfg)[1] for win in windows[:3]]
        for layer in qz.layer_catalog(cfg):
            key = "linear:" + layer["name"]
            diffs = []
            for win, ftr in zip(windows[:3], float_traces):
                qtr = {}
                qz.fake_quant_forward(weights, cfg, art, win, trace=qtr)
                diffs.append(np.atleast_2d(ftr[key]) - np.atleast_2d(qtr[key]))
            mean_err = np.concatenate(diffs, axis=0).mean(axis=0)
            np.testing.assert_allclose(mean_err, 0.0, atol=1e-6)


def test_requires_calibration_windows(tiny_cfg, tiny_weights):
    with pytest.raises(qz.CalibrationError):
        qz.quantize_model(tiny_weights, tiny_cfg, "w8a8")


def test_precision_overrides(tiny_cfg, tiny_weights, tiny_windows):
    art = qz.quantize_model(tiny_weights, tiny_cfg, "w2a8", tiny_windows,
                            precision_overrides={"head": 8})
    assert art.weights_q["head"].bits == 8
    assert art.weights_q["tokenizer"].bits == 2
