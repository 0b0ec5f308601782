from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femba import container as ct
from femba import engine as eng
from femba import image as im
from femba import model as fm
from femba import quantizer as qz
from femba import reference as ref

from conftest import TINY_GROUPED, make_windows


class TestQ15Mul:
    def test_half_times_half(self):
        assert eng.q15_mul(16384, 16384) == 8192

    def test_times_zero(self):
        assert eng.q15_mul(12345, 0) == 0

    def test_minus_one_squared_saturates(self):
        assert eng.q15_mul(-32768, -32768) == 32767

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(-32768, 32767), b=st.integers(-32768, 32767))
    def test_matches_real_arithmetic(self, a, b):
        got = int(eng.q15_mul(a, b))
        exact = Fraction(a, 1 << 15) * Fraction(b, 1 << 15)
        want = int((exact * (1 << 15) + Fraction(1, 2)).__floor__())
        assert got == min(want, 32767)


class TestRhuShift:
    @settings(max_examples=300, deadline=None)
    @given(v=st.integers(-2**40, 2**40), k=st.integers(0, 20))
    def test_matches_real_round_half_up(self, v, k):
        got = int(eng.rhu_shift(v, k))
        want = int(np.floor(v / 2.0 ** k + 0.5)) if k < 50 else 0
        # floating point can misround exact halves for big v; use Fraction
        want = int((Fraction(v, 1 << k) + Fraction(1, 2)).__floor__())
        assert got == want

    def test_negative_k_left_shift(self):
        assert eng.rhu_shift(3, -2) == 12


class TestLuts:
    def test_silu_at_zero(self):
        lut = eng.build_silu_lut()
        assert eng.lut_eval(lut, 0) == 0

    def test_exp_at_zero(self):
        lut = eng.build_exp_lut()
        assert eng.lut_eval(lut, 0) == 32767  # 1.0 in saturated Q15

    @pytest.mark.parametrize("name,fn", [
        ("silu", lambda x: x / (1.0 + np.exp(-x))),
        ("exp", np.exp),
        ("softplus", lambda x: np.minimum(np.logaddexp(0, x), 10.0)),
    ])
    def test_dense_sweep_error_bound(self, name, fn):
        lut = eng.build_all_luts()[name]
        xs_fixed = np.linspace(lut.lo_fixed,
                               lut.lo_fixed + 1023 * (1 << lut.step_shift),
                               1 << 16).astype(np.int64)
        got = eng.lut_eval(lut, xs_fixed).astype(np.float64) * 2.0 ** (-lut.out_frac)
        want = fn(xs_fixed / 2.0 ** lut.in_frac)
        assert np.abs(got - want).max() <= 2.0 ** (-10)

    def test_clamps_outside_domain(self):
        lut = eng.build_silu_lut()
        lo = eng.lut_eval(lut, lut.lo_fixed - 10_000_000)
        hi = eng.lut_eval(lut, lut.lo_fixed + 10_000_000_000)
        assert lo == lut.entries[0] and hi == lut.entries[-1]

    def test_int32_interpolation_at_load_limits(self):
        """The widest table load_image accepts, step_shift 15 with entries
        swinging between -32768 and 32767 and the domain ending at
        INT32_MAX, interpolates like the int64 reference."""
        s = eng.LUT_MAX_STEP_SHIFT
        entries = np.where(np.arange(eng.LUT_SIZE) % 2 == 0, -32768, 32767).astype(np.int16)
        lo = im.INT32_MAX - ((eng.LUT_SIZE - 1) << s)
        lut = eng.Lut("silu", entries, lo, eng.ACT_FRAC, eng.SILU_OUT_FRAC, s)
        xs = np.concatenate([
            lo + np.arange(-3, 5 << s),
            im.INT32_MAX - np.arange(5 << s),
            np.random.default_rng(0).integers(lo, im.INT32_MAX, 10_000),
            [-(2**40), 2**40, im.INT32_MAX]])
        np.testing.assert_array_equal(eng.lut_eval(lut, xs), ref._interp(lut, xs))

    def test_monotone_tables(self):
        for name in ("exp", "softplus"):
            lut = eng.build_all_luts()[name]
            assert np.all(np.diff(lut.entries.astype(int)) >= 0)


def naive_int8_matmul(act, w, bias, m, k):
    """Triple-loop oracle with explicit INT32 accumulation."""
    t_len, d_in = act.shape
    d_out = w.shape[0]
    out = np.zeros((t_len, d_out), dtype=np.int64)
    for t in range(t_len):
        for o in range(d_out):
            acc = int(bias[o]) if bias is not None else 0
            for i in range(d_in):
                acc += int(act[t, i]) * int(w[o, i])
            scaled = acc * int(m[o])
            r = (scaled + (1 << (k - 1))) >> k if k > 0 else scaled << (-k)
            out[t, o] = min(127, max(-127, r))
    return out


class TestInt8Matmul:
    def test_identity_weights(self):
        act = np.array([[1, 2], [3, 4]])
        w = np.eye(2, dtype=np.int8)
        out = eng.int8_matmul(act, w, None, np.array([1, 1]), 0)
        np.testing.assert_array_equal(out, act)

    def test_hand_saturation(self):
        # acc = 20000, shift 7 -> round(156.25) = 156 -> clamped 127
        act = np.array([[100, 100]])
        w = np.array([[100, 100]], dtype=np.int8)
        out = eng.int8_matmul(act, w, None, np.array([1]), 7)
        assert out[0, 0] == 127

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            act = rng.integers(-127, 128, size=(3, 8))
            w = rng.integers(-127, 128, size=(5, 8)).astype(np.int8)
            bias = rng.integers(-1000, 1000, size=5)
            m = rng.integers(1, 32768, size=5)
            k = int(rng.integers(8, 20))
            got = eng.int8_matmul(act, w, bias, m, k)
            np.testing.assert_array_equal(got, naive_int8_matmul(act, w, bias, m, k))

    def test_float64_accumulation_exact_at_load_bound(self):
        """At the largest d_in load_image accepts, with every activation and
        weight at +-127 and some weights at -128, the float64 accumulator
        equals a naive int64 matmul to the unit: the bias cancels the exact
        sum and leaves small offsets that pass the identity requantizer."""
        d_in = im.INT32_MAX // (127 * 127)
        rng = np.random.default_rng(1)
        act = 127 * rng.choice([-1, 1], size=(3, d_in))
        act[0] = 127
        w = (127 * rng.choice([-1, 1], size=(4, d_in))).astype(np.int8)
        w[0] = 127  # row 0 against act row 0: the largest sum, d_in * 127^2
        w[1, rng.choice(d_in, size=d_in // 3, replace=False)] = -128
        w[2] = -128
        exact = act.astype(np.int64) @ w.astype(np.int64).T
        assert exact[0, 0] == d_in * 127 * 127
        offsets = np.arange(-2, 2)
        for t in range(act.shape[0]):
            got = eng.int8_matmul(act[t:t + 1], w, offsets - exact[t], np.ones(4), 0)
            np.testing.assert_array_equal(got[0], offsets)

    def test_pow2_requant_equals_shift(self):
        rng = np.random.default_rng(2)
        acc = rng.integers(-(2**30), 2**30, size=10**6)
        shift = 9
        m, k = im.fold_mk(np.array([2.0 ** (-shift)]))
        via_mul = eng.requantize(acc, m, k, clamp=2**31 - 1)
        via_shift = np.clip(eng.rhu_shift(acc, shift), -(2**31 - 1), 2**31 - 1)
        np.testing.assert_array_equal(via_mul, via_shift)


class TestTernaryMatmul:
    def test_equals_unpacked_int8(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d_out, d_in = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            q = rng.integers(-1, 2, size=(d_out, d_in)).astype(np.int8)
            packed = qz.pack_ternary(q)
            act = rng.integers(-127, 128, size=(100, d_in))
            bias = rng.integers(-500, 500, size=d_out)
            m = rng.integers(1, 32768, size=d_out)
            got = eng.ternary_matmul(act, packed.words, (d_out, d_in), bias, m, 10)
            want = eng.int8_matmul(act, q, bias, m, 10)
            np.testing.assert_array_equal(got, want)

    def test_float64_accumulation_exact_at_load_bound(self):
        d_in = im.INT32_MAX // (127 * 127)
        rng = np.random.default_rng(2)
        act = 127 * rng.choice([-1, 1], size=(3, d_in))
        q = rng.integers(-1, 2, size=(3, d_in)).astype(np.int8)
        q[0] = np.sign(act[0])  # every product +127: the largest sum
        q[1] = -1
        packed = qz.pack_ternary(q)
        exact = act.astype(np.int64) @ q.astype(np.int64).T
        assert exact[0, 0] == d_in * 127
        offsets = np.arange(-1, 2)
        for t in range(act.shape[0]):
            got = eng.ternary_matmul(act[t:t + 1], packed.words, q.shape,
                                     offsets - exact[t], np.ones(3), 0)
            np.testing.assert_array_equal(got[0], offsets)

    def test_all_zero_weights_bias_only(self):
        packed = qz.pack_ternary(np.zeros((2, 16), dtype=np.int8))
        act = np.ones((1, 16), dtype=np.int64) * 50
        bias = np.array([640, -320])
        out = eng.ternary_matmul(act, packed.words, (2, 16), bias, np.array([1, 1]), 6)
        np.testing.assert_array_equal(out[0], [10, -5])

    def test_alternating_weights_telescoping(self):
        q = np.tile([1, -1], 8).astype(np.int8)[None, :]  # sums to 0
        packed = qz.pack_ternary(q)
        act = np.ones((1, 16), dtype=np.int64)
        out = eng.ternary_matmul(act, packed.words, (1, 16), None, np.array([1]), 0)
        assert out[0, 0] == 0
        q2 = np.array([[1] * 9 + [-1] * 7], dtype=np.int8)  # sums to 2
        packed2 = qz.pack_ternary(q2)
        out2 = eng.ternary_matmul(act, packed2.words, (1, 16), None, np.array([1]), 0)
        assert out2[0, 0] == 2


class TestDepthwiseConv:
    def test_current_tap_identity(self):
        x = np.random.default_rng(4).integers(-100, 100, size=(10, 3))
        kernel = np.zeros((3, 4), dtype=np.int8)
        kernel[:, -1] = 1
        out = eng.depthwise_conv_int8(x, kernel, None, np.ones(3, dtype=np.int64), 0)
        np.testing.assert_array_equal(out, np.clip(x, -127, 127))

    def test_impulse_echoes_kernel(self):
        x = np.zeros((8, 1), dtype=np.int64)
        x[2, 0] = 1
        kernel = np.array([[3, -2, 5, 7]], dtype=np.int8)
        out = eng.depthwise_conv_int8(x, kernel, None, np.ones(1, dtype=np.int64), 0)
        # taps play back in causal order: current sample sees kernel[-1] first
        np.testing.assert_array_equal(out[:, 0], [0, 0, 7, 5, -2, 3, 0, 0])

    def test_matches_naive(self):
        rng = np.random.default_rng(5)
        x = rng.integers(-127, 128, size=(12, 4))
        kernel = rng.integers(-127, 128, size=(4, 4)).astype(np.int8)
        bias = rng.integers(-100, 100, size=4)
        m = rng.integers(1, 32768, size=4)
        out = eng.depthwise_conv_int8(x, kernel, bias, m, 14)
        want = np.zeros_like(x)
        for t in range(12):
            for c in range(4):
                acc = int(bias[c])
                for j in range(4):
                    src = t - 3 + j
                    if src >= 0:
                        acc += int(kernel[c, j]) * int(x[src, c])
                want[t, c] = min(127, max(-127, (acc * int(m[c]) + (1 << 13)) >> 14))
        np.testing.assert_array_equal(out, want)


def scan_inputs(x, bbar):
    """Q15 scan input bx = q15_mul(bbar, x) of inputs x (T, C) and (C, S)
    input coefficients."""
    return eng.q15_mul(bbar, np.asarray(x)[:, :, None])


class TestQ15Scan:
    def test_memoryless(self):
        rng = np.random.default_rng(6)
        x = rng.integers(-32768, 32767, size=(20, 3))
        abar = np.zeros((3, 1), dtype=np.int64)
        bbar = np.full((3, 1), 32767, dtype=np.int64)
        h = eng.q15_scan_core(abar, scan_inputs(x, bbar))
        assert np.abs(h[:, :, 0] - x).max() <= 1

    def test_geometric_convergence_vs_exact_rationals(self):
        t_len = 40
        x = np.full((t_len, 1), 16384, dtype=np.int64)  # 0.5
        abar = np.full((1, 1), 16384, dtype=np.int64)
        bbar = np.full((1, 1), 16384, dtype=np.int64)
        h = eng.q15_scan_core(abar, scan_inputs(x, bbar))[:, 0, 0]
        # exact-rational simulation of the ideal recurrence
        ideal = Fraction(0)
        half = Fraction(1, 2)
        quarter = Fraction(1, 4)
        for t in range(t_len):
            ideal = half * ideal + quarter
            assert abs(int(h[t]) - ideal * (1 << 15)) <= 2, f"step {t}"
        assert abs(int(h[-1]) - 16384) <= 2

    def test_partition_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.integers(-32768, 32768, size=(16, 24))
        abar = rng.integers(0, 32768, size=(24, 4))
        bx = scan_inputs(x, rng.integers(-16384, 16384, size=(24, 4)))
        whole = eng.EngineStats()
        h1 = eng.q15_scan_core(abar, bx, stats=whole)
        parts = eng.EngineStats()
        h8 = np.concatenate([eng.q15_scan_core(abar[ch], bx[:, ch], stats=parts)
                             for ch in np.array_split(np.arange(24), 8)], axis=1)
        np.testing.assert_array_equal(h1, h8)
        assert parts == whole

    def test_saturation_counted(self):
        x = np.full((50, 1), 32767, dtype=np.int64)
        abar = np.full((1, 1), 32767, dtype=np.int64)
        bbar = np.full((1, 1), 32767, dtype=np.int64)
        stats = eng.EngineStats()
        eng.q15_scan_core(abar, scan_inputs(x, bbar), stats=stats)
        assert stats.scan_sat_events > 0
        assert stats.scan_steps == 50

    def test_output_assembly(self):
        x = np.full((5, 2), 8192, dtype=np.int64)
        abar = np.zeros((2, 2), dtype=np.int64)
        bbar = np.full((2, 2), 32767, dtype=np.int64)
        c = np.array([16384, 16384], dtype=np.int64)  # 0.5 + 0.5 over states
        h = eng.q15_scan_core(abar, scan_inputs(x, bbar))
        y = np.clip(eng.q15_mul(c, h).sum(axis=2), eng.Q15_MIN, eng.Q15_MAX)
        # h ~= x per state; y = 0.5*h + 0.5*h ~= x
        assert np.abs(y - 8192).max() <= 4

    @pytest.mark.parametrize("bx_sign", [1, -1])
    def test_int32_core_matches_int64_recurrence_at_extremes(self, bx_sign):
        """abar = 32767, h = -32768 and bx = +-32767 stress the int32 bounds;
        the states and saturation counts equal a plain int64 recurrence."""
        t_len = 12
        abar = np.full((t_len, 2, 3), 32767, dtype=np.int64)
        abar[:, 1] = -32768
        bx = np.full((t_len, 2, 3), bx_sign * 32767, dtype=np.int64)
        bx[0] = -32768  # h_1 = -32768 for every channel
        bx[1::3] = -bx_sign * 32767
        stats = eng.EngineStats()
        got = eng.q15_scan_core(abar, bx, stats=stats)
        h = np.zeros((2, 3), dtype=np.int64)
        sat = 0
        for t in range(t_len):
            v = ((abar[t] * h + (1 << 14)) >> 15) + bx[t]
            h = np.clip(v, -32768, 32767)
            sat += int(np.count_nonzero(h != v))
            np.testing.assert_array_equal(got[t], h)
        assert sat > 0
        assert stats == eng.EngineStats(scan_sat_events=sat, scan_steps=bx.size)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), t_len=st.integers(1, 12))
    def test_core_matches_exact_rational_semantics(self, seed, t_len):
        """The Q15 recurrence must equal a Fraction-based simulation of the
        documented integer semantics, element by element."""
        rng = np.random.default_rng(seed)
        abar = rng.integers(-32768, 32768, size=(2, 2))
        bx = rng.integers(-32768, 32768, size=(t_len, 2, 2))
        got = eng.q15_scan_core(abar, bx)
        for c in range(2):
            for s in range(2):
                h = 0
                for t in range(t_len):
                    prod = Fraction(int(abar[c, s]) * h, 1 << 15) + Fraction(1, 2)
                    h = prod.__floor__() + int(bx[t, c, s])
                    h = max(-32768, min(32767, h))
                    assert int(got[t, c, s]) == h, (t, c, s)


@pytest.fixture(scope="module")
def tiny_images(tiny_cfg, tiny_weights, tiny_windows):
    out = {}
    for mode in ("w8a8", "w2a8"):
        art = qz.quantize_model(tiny_weights, tiny_cfg, mode, tiny_windows)
        out[mode] = im.load_image(im.build_image(tiny_cfg, art))
    return out


class TestEngineForward:
    def test_matches_reference_bit_for_bit(self, tiny_cfg, tiny_images):
        for mode, img in tiny_images.items():
            for i in range(10):
                win = make_windows(tiny_cfg, 1, seed=500 + i)[0]
                tr_e, tr_r = {}, {}
                li_e, lf_e, _ = eng.engine_forward(img, win, workers=4, trace=tr_e)
                li_r, lf_r = ref.reference_int_forward(img, win, trace=tr_r)
                np.testing.assert_array_equal(li_e, li_r)
                np.testing.assert_array_equal(lf_e, lf_r)
                assert tr_e.keys() == tr_r.keys()
                for tap in tr_r:
                    np.testing.assert_array_equal(tr_e[tap], tr_r[tap]), tap

    def test_grouped_tokenizer_config_bit_exact(self):
        """Two feature groups per patch (interleaved tokens), odd sizes, one
        block: the grouped layout must stay bit-exact across paths and match
        the float model's token geometry."""
        cfg = TINY_GROUPED
        assert cfg.n_groups == 2
        weights = fm.init_weights(cfg, seed=5)
        calib = make_windows(cfg, 5, seed=8)
        for mode in ("w8a8", "w2a8"):
            art = qz.quantize_model(weights, cfg, mode, calib)
            img = im.load_image(im.build_image(cfg, art))
            for i in range(8):
                win = make_windows(cfg, 1, seed=5500 + i)[0]
                tr_e, tr_r = {}, {}
                li_e, _, _ = eng.engine_forward(img, win, workers=5, trace=tr_e)
                li_r, _ = ref.reference_int_forward(img, win, trace=tr_r)
                np.testing.assert_array_equal(li_e, li_r)
                for tap in tr_r:
                    np.testing.assert_array_equal(tr_e[tap], tr_r[tap])

    def test_zero_window_zero_bias_zero_logits(self, tiny_cfg, tiny_windows):
        w = fm.init_weights(tiny_cfg, seed=40)
        w.tok_bias[:] = 0
        w.pos_embed[:] = 0
        w.head_b[:] = 0
        for blk in w.blocks:
            for br in (blk.fwd, blk.bwd):
                br.conv_b[:] = 0
                br.dt_bias[:] = 0
        art = qz.quantize_model(w, tiny_cfg, "w8a8", tiny_windows)
        img = im.load_image(im.build_image(tiny_cfg, art))
        li, lf, _ = eng.engine_forward(img, np.zeros((tiny_cfg.n_channels,
                                                      tiny_cfg.n_samples)))
        assert np.all(li == 0) and np.all(lf == 0)

    def test_ternary_image_equals_expanded_int8(self, tiny_cfg, tiny_weights,
                                                tiny_windows):
        """A w2a8 image and a w8a8-style image holding the same ternary values
        expanded to INT8 must produce identical logits."""
        art = qz.quantize_model(tiny_weights, tiny_cfg, "w2a8", tiny_windows)
        img_t2 = im.load_image(im.build_image(tiny_cfg, art))

        # expand every ternary tensor to plain int8 with identical scales
        import copy
        art8 = copy.deepcopy(art)
        for name, qt in art8.weights_q.items():
            art8.weights_q[name] = qz.QuantizedTensor(qt.q.copy(), qt.scales.copy(), 8)
        img_i8 = im.load_image(im.build_image(tiny_cfg, art8))

        for i in range(5):
            win = make_windows(tiny_cfg, 1, seed=900 + i)[0]
            li_t, _, _ = eng.engine_forward(img_t2, win)
            li_8, _, _ = eng.engine_forward(img_i8, win)
            np.testing.assert_array_equal(li_t, li_8)

    def test_w2a8_regression_locked(self, tiny_cfg, tiny_images):
        win = make_windows(tiny_cfg, 1, seed=424242)[0]
        li, _, _ = eng.engine_forward(tiny_images["w2a8"], win)
        np.testing.assert_array_equal(li, [17, -11, -9])

    def test_w4a8_matches_reference(self, tiny_cfg, tiny_weights, tiny_windows):
        art = qz.quantize_model(tiny_weights, tiny_cfg, "w4a8", tiny_windows)
        assert art.weights_q["tokenizer"].bits == 4
        assert np.abs(art.weights_q["tokenizer"].q).max() <= 7
        img = im.load_image(im.build_image(tiny_cfg, art))
        for i in range(5):
            win = make_windows(tiny_cfg, 1, seed=600 + i)[0]
            li_e, _, _ = eng.engine_forward(img, win, workers=3)
            li_r, _ = ref.reference_int_forward(img, win)
            np.testing.assert_array_equal(li_e, li_r)

    def test_worker_and_rerun_determinism(self, tiny_cfg, tiny_images):
        img = tiny_images["w8a8"]
        win = make_windows(tiny_cfg, 1, seed=777)[0]
        runs = [eng.engine_forward(img, win, workers=n)[0] for n in (1, 2, 8, 16)]
        runs.append(eng.engine_forward(img, win, workers=1)[0])
        for r in runs[1:]:
            np.testing.assert_array_equal(r, runs[0])

    def test_saturation_rate_on_calibration_distribution(self, tiny_cfg):
        # a model whose hidden state stays inside Q15, like the full-shape
        # fan-in-scaled network (the tiny random init runs hotter per channel)
        w = fm.init_weights(tiny_cfg, seed=11)
        for blk in w.blocks:
            for br in (blk.fwd, blk.bwd):
                br.x_proj = br.x_proj * 0.5
        calib = make_windows(tiny_cfg, 6, seed=3)
        art = qz.quantize_model(w, tiny_cfg, "w8a8", calib)
        img = im.load_image(im.build_image(tiny_cfg, art))
        stats_total = eng.EngineStats()
        for i in range(6):
            win = make_windows(tiny_cfg, 1, seed=3 + i)[0]  # same distribution
            _, _, stats = eng.engine_forward(img, win)
            stats_total.scan_sat_events += stats.scan_sat_events
            stats_total.scan_steps += stats.scan_steps
        assert stats_total.saturation_rate < 1e-3

    def test_integer_path_tracks_float_fakequant(self, tiny_cfg):
        """Cross-path semantic check: the integer pipeline's activations must
        sit on the same grid points as the float-domain fake-quant forward,
        within a few LSB. Matmul/LUT taps carry only single-rounding error;
        the Q15 scan output may drift further but must stay close. This
        catches exponent mis-wiring that engine-vs-reference comparison
        cannot (both consume the same folded image)."""
        w = fm.init_weights(tiny_cfg, seed=11)
        for blk in w.blocks:
            for br in (blk.fwd, blk.bwd):
                br.x_proj = br.x_proj * 0.5
        calib = make_windows(tiny_cfg, 6, seed=14)
        art = qz.quantize_model(w, tiny_cfg, "w8a8", calib)
        img = im.load_image(im.build_image(tiny_cfg, art))
        early = [t for t in fm.quant_points(tiny_cfg)
                 if t in ("input", "tok_conv", "tokens") or t.startswith("blocks.0.")]
        for i in range(6):
            win = make_windows(tiny_cfg, 1, seed=7100 + i)[0]
            tr_f, tr_e = {}, {}
            qz.fake_quant_forward(w, tiny_cfg, art, win, trace=tr_f)
            eng.engine_forward(img, win, trace=tr_e)
            for tap in early:
                n = art.exponent(tap)
                q_float = np.clip(np.sign(tr_f[tap]) *
                                  np.floor(np.abs(tr_f[tap]) * 2.0 ** n + 0.5),
                                  -127, 127)
                lsb = np.abs(q_float - tr_e[tap].astype(np.float64)).max()
                bound = 16 if tap.endswith(".y") else 4
                assert lsb <= bound, (tap, lsb)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000),
           d_state=st.integers(1, 6),
           dt_rank=st.integers(1, 4),
           n_groups=st.integers(1, 3),
           d_conv=st.integers(2, 5),
           n_blocks=st.integers(1, 2),
           mode=st.sampled_from(["w8a8", "w4a8", "w2a8"]))
    def test_random_config_space_bit_exact(self, seed, d_state, dt_rank,
                                           n_groups, d_conv, n_blocks, mode):
        n_patches = 6
        cfg = fm.ModelConfig(d_model=4, d_inner=8, d_state=d_state,
                             d_conv=d_conv, n_blocks=n_blocks,
                             n_tokens=n_patches * n_groups, n_channels=3,
                             n_samples=n_patches * 4, patch_size=4,
                             n_classes=2, dt_rank=dt_rank)
        weights = fm.init_weights(cfg, seed=seed)
        calib = make_windows(cfg, 3, seed=seed + 1)
        art = qz.quantize_model(weights, cfg, mode, calib)
        img = im.load_image(im.build_image(cfg, art))
        win = make_windows(cfg, 1, seed=seed + 2)[0]
        tr_e, tr_r = {}, {}
        li_e, lf_e, _ = eng.engine_forward(img, win, workers=3, trace=tr_e)
        li_r, lf_r = ref.reference_int_forward(img, win, trace=tr_r)
        np.testing.assert_array_equal(li_e, li_r)
        np.testing.assert_array_equal(lf_e, lf_r)
        for tap in tr_r:
            np.testing.assert_array_equal(tr_e[tap], tr_r[tap])

    def test_accumulator_bound_checked_at_load(self, tiny_cfg, tiny_weights,
                                               tiny_windows):
        art = qz.quantize_model(tiny_weights, tiny_cfg, "w8a8", tiny_windows)
        c = im.build_image(tiny_cfg, art)
        bad = c.get("blocks.0.fwd.in_proj.bias")
        bad.data = bad.data.copy()
        bad.data[0] = 2**31 - 1
        with pytest.raises(eng.EngineConfigError):
            im.load_image(c)


class TestLoadImageChecks:
    @pytest.fixture()
    def image_w2(self, tiny_cfg, tiny_weights, tiny_windows):
        art = qz.quantize_model(tiny_weights, tiny_cfg, "w2a8", tiny_windows)
        return im.build_image(tiny_cfg, art)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_act_exponent_count_checked(self, image_w2, delta):
        exps = image_w2.array("act_exponents")
        image_w2.add("act_exponents", ct.DT_I8,
                     np.concatenate([exps, exps])[:exps.size + delta])
        with pytest.raises(ct.FormatError, match="act_exponents"):
            im.load_image(image_w2)

    def test_ternary_field_3_rejected(self, image_w2):
        e = image_w2.get("blocks.0.fwd.in_proj.q")
        e.data = e.data.copy()
        e.data[1] |= np.uint32(3 << 6)  # weight 19
        with pytest.raises(ct.FormatError, match="field value 3"):
            im.load_image(image_w2)

    def test_ternary_field_3_in_padding_ignored(self, tiny_cfg, image_w2):
        # head.q holds 3 x 8 = 24 weights: fields 8..15 of its second word pad
        e = image_w2.get("head.q")
        assert int(np.prod(e.dims)) == 24
        e.data = e.data.copy()
        e.data[1] |= np.uint32(3 << 30)
        img = im.load_image(image_w2)
        win = make_windows(tiny_cfg, 1, seed=5)[0]
        li_e, _, _ = eng.engine_forward(img, win)
        li_r, _ = ref.reference_int_forward(img, win)
        np.testing.assert_array_equal(li_e, li_r)

    def test_lut_size_checked(self, image_w2):
        image_w2.add("luts.exp", ct.DT_Q15, image_w2.array("luts.exp")[:512])
        with pytest.raises(ct.FormatError, match="luts.exp"):
            im.load_image(image_w2)

    @pytest.mark.parametrize("field,value", [
        (1, eng.EXP_IN_FRAC + 1),               # input format
        (2, 14),                                # output format
        (3, -1),                                # step_shift
        (3, eng.LUT_MAX_STEP_SHIFT + 1),
        (0, im.INT32_MAX - (eng.LUT_SIZE - 1) * 64 + 1),  # domain past INT32_MAX
    ])
    def test_lut_meta_checked(self, image_w2, field, value):
        meta = image_w2.array("luts.exp.meta").copy()
        meta[field] = value
        image_w2.add("luts.exp.meta", ct.DT_I32, meta)
        with pytest.raises(ct.FormatError, match="luts.exp"):
            im.load_image(image_w2)

    def test_lut_at_int32_limit_engine_equals_reference(self, tiny_cfg, image_w2):
        meta = image_w2.array("luts.silu.meta").copy()
        s = eng.LUT_MAX_STEP_SHIFT
        meta[0], meta[3] = im.INT32_MAX - ((eng.LUT_SIZE - 1) << s), s
        image_w2.add("luts.silu.meta", ct.DT_I32, meta)
        img = im.load_image(image_w2)
        win = make_windows(tiny_cfg, 1, seed=6)[0]
        tr_e, tr_r = {}, {}
        eng.engine_forward(img, win, trace=tr_e)
        ref.reference_int_forward(img, win, trace=tr_r)
        for tap in tr_r:
            np.testing.assert_array_equal(tr_e[tap], tr_r[tap])
