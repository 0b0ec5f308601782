import dataclasses
import math

import numpy as np
import pytest

from femba import model as fm

from conftest import make_windows


# --- independent oracles -----------------------------------------------------

def naive_scan(u, delta, a, b, c, d=None):
    """Element-by-element recurrence, no vectorization."""
    t_len, n_ch = u.shape
    n_st = a.shape[1]
    h = np.zeros((n_ch, n_st))
    y = np.zeros((t_len, n_ch))
    for t in range(t_len):
        for ch in range(n_ch):
            for s in range(n_st):
                abar = math.exp(delta[t, ch] * a[ch, s])
                bbar = delta[t, ch] * b[t, s]
                h[ch, s] = abar * h[ch, s] + bbar * u[t, ch]
            y[t, ch] = sum(c[t, s] * h[ch, s] for s in range(n_st))
            if d is not None:
                y[t, ch] += d[ch] * u[t, ch]
    return y


def straight_line_branch(seq, w, p, cfg):
    """Unfused reimplementation of the branch of weights ``w`` under the
    prefix ``p`` (``blocks.<i>.<fwd|bwd>.``), step by step."""
    xz = seq @ w[p + "in_proj"].T
    x, gate = xz[:, :cfg.d_inner], xz[:, cfg.d_inner:]
    t_len = seq.shape[0]
    conv = np.zeros_like(x)
    for t in range(t_len):
        for j in range(cfg.d_conv):
            src = t - (cfg.d_conv - 1) + j
            if src >= 0:
                conv[t] += w[p + "conv_w"][:, j] * x[src]
    conv += w[p + "conv_b"]
    u = conv / (1.0 + np.exp(-conv))
    dbl = u @ w[p + "x_proj"].T
    dr, ds = cfg.dt_rank, cfg.d_state
    dt = np.log1p(np.exp(dbl[:, :dr] @ w[p + "dt_proj"].T + w[p + "dt_bias"]))
    dt = np.clip(dt, cfg.dt_min, cfg.dt_max)
    y = naive_scan(u, dt, -np.exp(w[p + "a_log"]), dbl[:, dr:dr + ds], dbl[:, dr + ds:],
                   w[p + "d_skip"])
    gated = y * (gate / (1.0 + np.exp(-gate)))
    return gated @ w[p + "out_proj"].T


# --- selective_scan ----------------------------------------------------------

class TestSelectiveScan:
    def test_delta_to_zero_limit(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(6, 3))
        delta = np.full((6, 3), 1e-9)
        a = -np.abs(rng.normal(size=(3, 2))) - 0.1
        b = rng.normal(size=(6, 2))
        c = rng.normal(size=(6, 2))
        y = fm.selective_scan(u, delta, a, b, c)
        assert np.abs(y).max() < 1e-6

    def test_hand_unrolled(self):
        # one channel, one state, A=-1, delta=ln 2 -> abar = 0.5
        ln2 = math.log(2.0)
        u = np.ones((2, 1))
        delta = np.full((2, 1), ln2)
        a = np.array([[-1.0]])
        b = np.ones((2, 1))
        c = np.ones((2, 1))
        y = fm.selective_scan(u, delta, a, b, c)
        np.testing.assert_allclose(y[:, 0], [ln2, 0.5 * ln2 + ln2], rtol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            u = rng.normal(size=(5, 2))
            delta = rng.uniform(0.01, 1.0, size=(5, 2))
            a = -np.exp(rng.normal(size=(2, 3)))
            b = rng.normal(size=(5, 3))
            c = rng.normal(size=(5, 3))
            d = rng.normal(size=2)
            got = fm.selective_scan(u, delta, a, b, c, d)
            want = naive_scan(u, delta, a, b, c, d)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_linearity_in_u(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(8, 4))
        delta = rng.uniform(0.05, 0.5, size=(8, 4))
        a = -np.exp(rng.normal(size=(4, 3)))
        b = rng.normal(size=(8, 3))
        c = rng.normal(size=(8, 3))
        y1 = fm.selective_scan(3.0 * u, delta, a, b, c)
        y2 = 3.0 * fm.selective_scan(u, delta, a, b, c)
        np.testing.assert_allclose(y1, y2, rtol=1e-6)

    def test_stability_bounded(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(200, 4))
        delta = rng.uniform(0.01, 2.0, size=(200, 4))
        a = -np.exp(rng.normal(size=(4, 3)))
        abar = np.exp(delta[:, :, None] * a[None])
        assert np.all(abar < 1.0)
        y = fm.selective_scan(u, delta, a, rng.normal(size=(200, 3)),
                              rng.normal(size=(200, 3)))
        assert np.all(np.isfinite(y))

    def test_equals_out_of_place_update(self):
        """The in-place update gives exactly the values of the plain
        h = exp(dt * a) * h + dt * b[t] * u[t] recurrence."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            t_len, n_ch, n_st = rng.integers(1, 30), rng.integers(1, 12), rng.integers(1, 17)
            u = rng.normal(size=(t_len, n_ch)) * rng.uniform(0.1, 50.0)
            delta = rng.uniform(1e-3, 3.0, size=(t_len, n_ch))
            a = -np.exp(rng.normal(size=(n_ch, n_st)))
            b, c = rng.normal(size=(2, t_len, n_st))
            d = rng.normal(size=n_ch)
            h = np.zeros((n_ch, n_st))
            want = np.empty((t_len, n_ch))
            for t in range(t_len):
                dt = delta[t, :, None]
                h = np.exp(dt * a) * h + dt * b[t] * u[t, :, None]
                want[t] = h @ c[t]
            want = want + d * u
            assert np.array_equal(fm.selective_scan(u, delta, a, b, c, d), want)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            fm.selective_scan(np.ones((2, 1)), np.zeros((2, 1)),
                              -np.ones((1, 1)), np.ones((2, 1)), np.ones((2, 1)))


# --- branches and blocks -----------------------------------------------------

def walk(weights, cfg, trace=None):
    return fm.Walk(fm.tensor_table(weights, cfg), cfg, trace=trace)


class TestMambaBranch:
    def test_reversal_symmetry(self, tiny_cfg, tiny_weights):
        tokens = np.random.default_rng(3).normal(size=(tiny_cfg.n_tokens, tiny_cfg.d_model))
        w = dict(tiny_weights)
        w.update({name.replace(".bwd.", ".fwd."): a for name, a in tiny_weights.items()
                  if name.startswith("blocks.0.bwd.")})
        bwd = walk(w, tiny_cfg).branch(tokens, 0, "bwd")
        fwd_of_rev = walk(w, tiny_cfg).branch(tokens[::-1], 0, "fwd")[::-1]
        np.testing.assert_allclose(bwd, fwd_of_rev, atol=1e-6)

    def test_zero_weights_zero_output(self, tiny_cfg):
        w = fm.zero_weights(tiny_cfg)
        tokens = np.random.default_rng(4).normal(size=(tiny_cfg.n_tokens, tiny_cfg.d_model))
        out = walk(w, tiny_cfg).branch(tokens, 0, "fwd")
        assert np.all(out == 0)

    def test_matches_straight_line_oracle(self, tiny_cfg, tiny_weights):
        tokens = np.random.default_rng(5).normal(size=(tiny_cfg.n_tokens, tiny_cfg.d_model))
        got = walk(tiny_weights, tiny_cfg).branch(tokens, 1, "fwd")
        want = straight_line_branch(tokens, tiny_weights, "blocks.1.fwd.", tiny_cfg)
        np.testing.assert_allclose(got, want, atol=1e-5)


class TestBiMambaBlock:
    def test_zero_weights_identity(self, tiny_cfg):
        w = fm.zero_weights(tiny_cfg)
        tokens = np.random.default_rng(6).normal(size=(tiny_cfg.n_tokens, tiny_cfg.d_model))
        out = walk(w, tiny_cfg).block(tokens, 0)
        np.testing.assert_allclose(out, tokens)

    def test_fwd_only_additive(self, tiny_cfg, tiny_weights):
        w = dict(tiny_weights)
        w.update((name, a) for name, a in fm.zero_weights(tiny_cfg).items()
                 if name.startswith("blocks.0.bwd."))
        tokens = np.random.default_rng(7).normal(size=(tiny_cfg.n_tokens, tiny_cfg.d_model))
        out = walk(w, tiny_cfg).block(tokens, 0)
        want = tokens + walk(w, tiny_cfg).branch(tokens, 0, "fwd")
        np.testing.assert_allclose(out, want, atol=1e-9)

    def test_matches_composed_sub_ops(self, tiny_cfg, tiny_weights):
        w = tiny_weights
        tokens = np.random.default_rng(8).normal(size=(tiny_cfg.n_tokens, tiny_cfg.d_model))
        got = walk(w, tiny_cfg).block(tokens, 0)
        want = tokens + (straight_line_branch(tokens, w, "blocks.0.fwd.", tiny_cfg)
                         + straight_line_branch(tokens[::-1], w, "blocks.0.bwd.",
                                                tiny_cfg)[::-1])
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_fusion_modes(self, tiny_cfg):
        cfg_mean = dataclasses.replace(tiny_cfg, fusion="mean")
        w = fm.init_weights(cfg_mean, seed=2)
        tokens = np.random.default_rng(9).normal(size=(tiny_cfg.n_tokens, tiny_cfg.d_model))
        f = walk(w, cfg_mean).branch(tokens, 0, "fwd")
        b = walk(w, cfg_mean).branch(tokens, 0, "bwd")
        out = walk(w, cfg_mean).block(tokens, 0)
        np.testing.assert_allclose(out, tokens + 0.5 * (f + b), atol=1e-9)


# --- tokenizer and forward ---------------------------------------------------

class TestTokenize:
    def test_zero_window_yields_pos_embed_plus_bias(self, tiny_cfg, tiny_weights):
        tokens = walk(tiny_weights, tiny_cfg).tokenize(
            np.zeros((tiny_cfg.n_channels, tiny_cfg.n_samples)))
        bias_tokens = np.tile(tiny_weights["tokenizer.bias"],
                              tiny_cfg.n_patches).reshape(tiny_cfg.n_tokens, tiny_cfg.d_model)
        np.testing.assert_allclose(tokens, tiny_weights["pos_embed"] + bias_tokens)

    def test_zero_window_zero_bias(self, tiny_cfg, tiny_weights):
        w = dict(tiny_weights)
        w["tokenizer.bias"] = np.zeros_like(w["tokenizer.bias"])
        tokens = walk(w, tiny_cfg).tokenize(np.zeros((tiny_cfg.n_channels, tiny_cfg.n_samples)))
        np.testing.assert_array_equal(tokens, w["pos_embed"])

    def test_delta_input_single_tap(self, tiny_cfg):
        # kernel that copies channel 0, sample 0 of each patch
        w = fm.zero_weights(tiny_cfg)
        w["tokenizer.weight"][0, 0, 0] = 1.0
        window = np.zeros((tiny_cfg.n_channels, tiny_cfg.n_samples))
        window[0, tiny_cfg.patch_size * 2] = 7.0  # patch 2, offset 0
        tokens = walk(w, tiny_cfg).tokenize(window)
        # direct convolution oracle: response only at patch 2, feature 0
        expect = np.zeros_like(tokens)
        expect[2 * tiny_cfg.n_groups, 0] = 7.0
        np.testing.assert_array_equal(tokens, expect)

    def test_default_shape(self):
        cfg = fm.ModelConfig()
        w = fm.zero_weights(cfg)
        tokens = walk(w, cfg).tokenize(np.zeros((22, 1280)))
        assert tokens.shape == (160, 385)

    def test_shape_mismatch(self, tiny_cfg, tiny_weights):
        with pytest.raises(ValueError):
            walk(tiny_weights, tiny_cfg).tokenize(
                np.zeros((tiny_cfg.n_channels, tiny_cfg.n_samples + 1)))


class TestForward:
    def test_zero_weights_zero_logits(self, tiny_cfg):
        w = fm.zero_weights(tiny_cfg)
        window = np.random.default_rng(10).normal(size=(tiny_cfg.n_channels,
                                                        tiny_cfg.n_samples))
        logits = fm.forward(window, w, tiny_cfg)
        assert np.all(logits == 0)

    def test_duplicated_head_rows_equal_logits(self, tiny_cfg, tiny_weights):
        w = dict(tiny_weights)
        w["head.weight"] = np.tile(w["head.weight"][:1], (tiny_cfg.n_classes, 1))
        w["head.bias"] = np.zeros(tiny_cfg.n_classes)
        window = np.random.default_rng(11).normal(size=(tiny_cfg.n_channels,
                                                        tiny_cfg.n_samples))
        logits = fm.forward(window, w, tiny_cfg)
        assert np.ptp(logits) < 1e-12

    def test_matches_straight_line_composition(self, tiny_cfg, tiny_weights):
        window = np.random.default_rng(12).normal(size=(tiny_cfg.n_channels,
                                                        tiny_cfg.n_samples))
        w = tiny_weights
        tokens = walk(w, tiny_cfg).tokenize(window)
        for i in range(tiny_cfg.n_blocks):
            p = f"blocks.{i}."
            tokens = tokens + (straight_line_branch(tokens, w, p + "fwd.", tiny_cfg)
                               + straight_line_branch(tokens[::-1], w, p + "bwd.",
                                                      tiny_cfg)[::-1])
        want = tokens.mean(axis=0) @ w["head.weight"].T + w["head.bias"]
        got = fm.forward(window, tiny_weights, tiny_cfg)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_head_permutation_equivariance(self, tiny_cfg, tiny_weights):
        window = make_windows(tiny_cfg, 1, seed=13)[0]
        logits = fm.forward(window, tiny_weights, tiny_cfg)
        perm = np.array([2, 0, 1])
        w = dict(tiny_weights)
        w["head.weight"] = w["head.weight"][perm]
        w["head.bias"] = w["head.bias"][perm]
        permuted = fm.forward(window, w, tiny_cfg)
        np.testing.assert_array_equal(permuted, logits[perm])
        assert np.argmax(permuted) == np.argwhere(perm == np.argmax(logits))[0, 0]

    def test_deterministic(self, tiny_cfg, tiny_weights):
        window = make_windows(tiny_cfg, 1, seed=14)[0]
        a = fm.forward(window, tiny_weights, tiny_cfg)
        b = fm.forward(window, tiny_weights, tiny_cfg)
        assert np.array_equal(a, b)

    def test_trace_covers_quant_points(self, tiny_cfg, tiny_weights):
        window = make_windows(tiny_cfg, 1, seed=15)[0]
        _, trace = fm.forward_with_trace(window, tiny_weights, tiny_cfg)
        for tap in fm.quant_points(tiny_cfg):
            assert tap in trace, tap


def test_config_validation():
    with pytest.raises(ValueError):
        fm.ModelConfig(n_samples=1281)
    with pytest.raises(ValueError):
        fm.ModelConfig(n_tokens=161)
    with pytest.raises(ValueError):
        fm.ModelConfig(fusion="nope")
    cfg = fm.ModelConfig()
    assert cfg.dt_rank == 25 and cfg.n_patches == 80 and cfg.n_groups == 2
