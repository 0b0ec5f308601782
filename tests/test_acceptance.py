"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from femba import cli
from femba import container as ct
from femba import engine as eng
from femba import image as im
from femba import model as fm
from femba import objectives as obj
from femba import quantizer as qz
from femba import reference as ref
from femba import signal_pipeline as sigp
from femba import streamsim as ss

from conftest import TINY, make_windows
from test_model import naive_scan
from test_objectives import central_diff, rel_err


def report(line):
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def full_images():
    """FEMBA-Tiny-shape deployment images, built once."""
    cfg = fm.ModelConfig()
    weights = fm.init_weights(cfg, seed=0)
    calib = make_windows(cfg, 2, seed=5)
    out = {}
    for mode in ("w8a8", "w2a8"):
        art = qz.quantize_model(weights, cfg, mode, calib)
        blob = im.build_image(cfg, art).tobytes()
        out[mode] = blob
    return out


def test_criterion_1_mac_accounting():
    t0 = time.perf_counter()
    macs = ss.mac_count(fm.ModelConfig())
    elapsed = time.perf_counter() - t0
    assert macs["input_proj"] == 189_728_000
    assert macs["output_proj"] == 94_864_000
    assert macs["conv"] == 985_600
    assert elapsed < 1.0
    report(f"1 PASS mac accounting exact: input_proj={macs['input_proj']:,} "
           f"output_proj={macs['output_proj']:,} conv={macs['conv']:,} "
           f"({elapsed * 1e3:.1f} ms)")


def test_criterion_2_cycle_latency_energy():
    t0 = time.perf_counter()
    cr = ss.run_default()
    elapsed = time.perf_counter() - t0
    cyc_err = abs(cr.total_cycles - 629.4e6) / 629.4e6
    lat_err = abs(cr.latency_s - 1.70) / 1.70
    en_err = abs(cr.energy_j - 0.075) / 0.075
    assert cyc_err < 0.03 and lat_err < 0.03 and en_err < 0.03
    assert elapsed < 1.0
    report(f"2 PASS cycles={cr.total_cycles / 1e6:.1f}M ({cyc_err:.2%} of 629.4M) "
           f"latency={cr.latency_s:.3f}s ({lat_err:.2%}) "
           f"energy={cr.energy_j * 1e3:.1f}mJ ({en_err:.2%}) ({elapsed * 1e3:.0f} ms)")


def test_criterion_3_storage_reduction(full_images):
    n8, n2 = len(full_images["w8a8"]), len(full_images["w2a8"])
    ratio = n2 / n8
    assert ratio <= 0.27
    report(f"3 PASS storage: w2a8 {n2:,} B vs w8a8 {n8:,} B -> {ratio:.2%} <= 27%")


def test_criterion_4_bit_exactness(full_images):
    t0 = time.perf_counter()
    # desk scale: 100 random windows per mode on the tiny configuration
    weights = fm.init_weights(TINY, seed=11)
    calib = make_windows(TINY, 6, seed=3)
    mismatches = 0
    for mode in ("w8a8", "w2a8"):
        art = qz.quantize_model(weights, TINY, mode, calib)
        img = im.load_image(im.build_image(TINY, art))
        for i in range(100):
            win = make_windows(TINY, 1, seed=20_000 + i)[0]
            tr_e, tr_r = {}, {}
            eng.engine_forward(img, win, trace=tr_e)
            ref.reference_int_forward(img, win, trace=tr_r)
            assert tr_e.keys() == tr_r.keys()
            for tap in tr_r:
                if tr_e[tap].tobytes() != tr_r[tap].tobytes():
                    mismatches += 1
    assert mismatches == 0

    # one full-shape smoke run per mode
    win = make_windows(fm.ModelConfig(), 1, seed=77)[0]
    for mode, blob in full_images.items():
        img = im.load_image(ct.Container.frombytes(blob))
        tr_e, tr_r = {}, {}
        eng.engine_forward(img, win, trace=tr_e)
        ref.reference_int_forward(img, win, trace=tr_r)
        for tap in tr_r:
            assert tr_e[tap].tobytes() == tr_r[tap].tobytes(), (mode, tap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(f"4 PASS bit-exactness: 100 windows x (w8a8, w2a8) tiny + full-shape "
           f"smoke, zero mismatching bytes ({elapsed:.1f} s)")


def test_criterion_5_ternary_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    cases = 0
    while cases < 10_000:
        d_out, d_in = int(rng.integers(1, 10)), int(rng.integers(1, 50))
        rows = int(rng.integers(1, 80))
        q = rng.integers(-1, 2, size=(d_out, d_in)).astype(np.int8)
        words = qz.pack_ternary(q)
        act = rng.integers(-127, 128, size=(rows, d_in))
        bias = rng.integers(-1000, 1000, size=d_out)
        m = rng.integers(1, 32768, size=d_out)
        k = int(rng.integers(4, 20))
        got = eng.ternary_matmul(act, words, (d_out, d_in), bias, m, k)
        want = eng.int8_matmul(act, q, bias, m, k)
        assert np.array_equal(got, want)
        cases += rows * d_out

    # exhaustive pack/unpack bijection over all 3^16 one-word patterns
    idx = np.arange(3 ** 8, dtype=np.uint32)
    powers = (3 ** np.arange(8)).astype(np.uint32)
    digits = (idx[:, None] // powers[None, :]) % 3
    half = (digits << (2 * np.arange(8, dtype=np.uint32))).sum(axis=1).astype(np.uint32)
    total = 0
    for lo in range(0, half.size, 81):
        his = half[lo:lo + 81]
        words = ((his[:, None].astype(np.uint64) << 16) | half[None, :]) \
            .astype(np.uint32).reshape(-1)
        q = qz.unpack_ternary(words, (words.size, 16))
        assert np.array_equal(qz.pack_ternary(q), words)
        total += words.size
    assert total == 3 ** 16
    elapsed = time.perf_counter() - t0
    report(f"5 PASS ternary: {cases:,} matmul cases exact; pack/unpack bijection "
           f"exhaustive over {total:,} words ({elapsed:.1f} s)")


def test_criterion_6_scan_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        t_len, n_ch, n_st = 5, 2, 3
        u = rng.normal(size=(t_len, n_ch))
        delta = rng.uniform(0.01, 1.0, size=(t_len, n_ch))
        a = -np.exp(rng.normal(size=(n_ch, n_st)))
        b = rng.normal(size=(t_len, n_st))
        c = rng.normal(size=(t_len, n_st))
        d = rng.normal(size=n_ch)
        got = fm.selective_scan(u, delta, a, b, c, d)
        want = naive_scan(u, delta, a, b, c, d)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-6

    # Q15 geometric convergence vs exact rationals, per-step bound of 2 LSB
    t_len = 48
    x = np.full((t_len, 1), 16384, dtype=np.int64)
    abar = np.full((1, 1), 16384, dtype=np.int64)
    bbar = np.full((1, 1), 16384, dtype=np.int64)
    h = eng.q15_scan_core(abar, eng.q15_mul(bbar, x[:, :, None]))[:, 0, 0]
    ideal = Fraction(0)
    worst_lsb = 0
    for t in range(t_len):
        ideal = Fraction(1, 2) * ideal + Fraction(1, 4)
        worst_lsb = max(worst_lsb, abs(int(h[t]) - float(ideal * (1 << 15))))
    assert worst_lsb <= 2
    assert abs(int(h[-1]) - 16384) <= 2
    elapsed = time.perf_counter() - t0
    report(f"6 PASS scan: float vs naive worst |err| {worst:.2e} <= 1e-6 over 1000 "
           f"instances; Q15 geometric within {worst_lsb} LSB/step ({elapsed:.1f} s)")


def test_criterion_7_objectives():
    t0 = time.perf_counter()
    loss, _ = obj.smooth_l1(np.array([0.5]), np.array([0.0]), 1.0,
                            np.array([True]))
    assert abs(loss - 0.125) <= 1e-6
    loss, _ = obj.smooth_l1(np.array([2.0]), np.array([0.0]), 1.0,
                            np.array([True]))
    assert abs(loss - 1.5) <= 1e-6
    loss, _ = obj.focal_loss(np.array([[0.5, 0.5]]), np.array([0]), 1.0, 2.0)
    assert abs(loss - (-0.25 * math.log(0.5))) <= 1e-6
    assert round(loss, 5) == 0.17329
    anchor = np.eye(4)[:1]
    loss, _ = obj.info_nce(anchor, anchor, np.eye(4)[1:], 1.0)
    assert abs(loss - (-math.log(math.e / (math.e + 3.0)))) <= 1e-6
    assert round(loss, 4) == 0.7437

    rng = np.random.default_rng(2)
    points = 0
    worst = 0.0
    while points < 1000:
        pred, target = rng.normal(size=8), rng.normal(size=8)
        beta = float(rng.uniform(0.3, 2.0))
        if np.abs(np.abs(pred - target) - beta).min() > 1e-3:
            _, g = obj.smooth_l1(pred, target, beta)
            num = central_diff(lambda p: obj.smooth_l1(p, target, beta)[0], pred)
            worst = max(worst, rel_err(g, num))
            points += pred.size

        probs = rng.uniform(0.05, 0.95, size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        gamma = float(rng.uniform(0.0, 3.0))
        _, g = obj.focal_loss(probs, labels, 0.7, gamma)
        num = central_diff(lambda p: obj.focal_loss(p, labels, 0.7, gamma)[0], probs)
        worst = max(worst, rel_err(g, num))
        points += probs.size

        a, p = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        negs = rng.normal(size=(2, 3, 4))
        tau = float(rng.uniform(0.3, 1.5))
        _, grads = obj.info_nce(a, p, negs, tau)
        for name, x in (("anchor", a), ("positive", p), ("negatives", negs)):
            def f(v, name=name, a=a, p=p, negs=negs):
                args = {"anchor": a, "positive": p, "negatives": negs}
                args[name] = v
                return obj.info_nce(args["anchor"], args["positive"],
                                    args["negatives"], tau)[0]
            worst = max(worst, rel_err(grads[name], central_diff(f, x)))
        points += a.size + p.size + negs.size
    assert worst <= 1e-4
    elapsed = time.perf_counter() - t0
    report(f"7 PASS objectives: hand values to 1e-6; gradcheck worst rel err "
           f"{worst:.2e} <= 1e-4 over {points} points ({elapsed:.1f} s)")


def test_criterion_8_dsp_properties():
    t0 = time.perf_counter()
    # low-pass target: unit DC gain and >= 12 dB at 100 Hz
    dc = np.full((3, 1280), 2.375)
    out = sigp.lowpass_target(dc)
    dc_err = float(np.abs(out / 2.375 - 1.0).max())
    assert dc_err <= 1e-6
    t = np.arange(1280) / 256.0
    x100 = np.sin(2 * np.pi * 100 * t)[None, :]
    y = sigp.lowpass_target(x100)
    amp = 2.0 * np.hypot(y[0] @ np.cos(2 * np.pi * 100 * t),
                         y[0] @ np.sin(2 * np.pi * 100 * t)) / 1280
    atten_db = -20 * math.log10(max(amp, 1e-12))
    assert atten_db >= 12.0

    # ft_surrogate magnitude preservation to 1e-5 relative
    rng = np.random.default_rng(3)
    x = rng.normal(size=(22, 1280))
    s = sigp.ft_surrogate(x, seed=17)
    m0 = np.abs(np.fft.rfft(x, axis=-1))
    m1 = np.abs(np.fft.rfft(s, axis=-1))
    mag_err = float(np.max(np.abs(m1 - m0) / np.maximum(m0, 1e-9)))
    assert mag_err <= 1e-5

    # iqr_normalize maps quartiles to {0, 1} within 1e-7
    x = rng.normal(3.0, 7.0, size=(22, 1280))
    normed = sigp.iqr_normalize(x)
    q25, q75 = np.percentile(normed, [25, 75], axis=-1)
    q_err = float(max(np.abs(q25).max(), np.abs(q75 - 1.0).max()))
    assert q_err <= 1e-7
    elapsed = time.perf_counter() - t0
    report(f"8 PASS dsp: lowpass DC err {dc_err:.1e}, 100 Hz atten {atten_db:.1f} dB, "
           f"surrogate mag err {mag_err:.1e}, quartile err {q_err:.1e} "
           f"({elapsed:.1f} s)")


def _run_all_commands(tmp_path, tag):
    """One pass over every CLI command; returns {output name: bytes}."""
    d = tmp_path / tag
    d.mkdir()
    rng = np.random.default_rng(0)
    rec = d / "rec.sig"
    ct.write_recording(rec, rng.normal(0, 15, (22, 2560)), 256.0)
    outputs = {}

    wins = d / "wins.fmbc"
    assert cli.main(["preprocess", str(rec), str(wins)]) == 0
    outputs["windows"] = wins.read_bytes()
    outputs["windows.jsonl"] = (d / "wins.fmbc.jsonl").read_bytes()

    ckpt = d / "model.fmbc"
    im.save_checkpoint(fm.init_weights(TINY, seed=11), TINY, ckpt)
    calib = d / "calib.fmbc"
    cli.save_windows(str(calib), make_windows(TINY, 4, seed=3))
    img = d / "image.fmbc"
    assert cli.main(["quantize", str(ckpt), str(img), "--mode", "w2a8",
                     "--calib", str(calib)]) == 0
    outputs["image"] = img.read_bytes()

    logits = d / "logits.fmbc"
    manifest = d / "manifest.json"
    manifest.write_text(json.dumps({"model": str(img), "mode": "w2a8",
                                    "windows": str(calib), "output": str(logits)}))
    assert cli.main(["infer", str(manifest)]) == 0
    outputs["logits"] = logits.read_bytes()

    bench = d / "bench.csv"
    assert cli.main(["bench", "--format", "csv", "--out", str(bench)]) == 0
    outputs["bench"] = bench.read_bytes()

    pred = d / "pred.fmbc"
    c = ct.Container()
    c.add("tensor", ct.DT_F32, rng.normal(size=(4, 8)).astype(np.float32))
    c.save(pred)
    grad = d / "grad.fmbc"
    assert cli.main(["losses", "--loss", "smooth_l1", "--pred", str(pred),
                     "--target", str(pred), "--out", str(grad)]) == 0
    outputs["grad"] = grad.read_bytes()
    return outputs


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    runs = {}
    old = os.environ.get("FEMBA_THREADS")
    try:
        for threads in ("1", "8"):
            os.environ["FEMBA_THREADS"] = threads
            for rep in ("a", "b"):
                runs[(threads, rep)] = _run_all_commands(tmp_path, f"t{threads}{rep}")
    finally:
        if old is None:
            os.environ.pop("FEMBA_THREADS", None)
        else:
            os.environ["FEMBA_THREADS"] = old
    baseline = runs[("1", "a")]
    for key, outputs in runs.items():
        assert outputs.keys() == baseline.keys()
        for name in baseline:
            assert outputs[name] == baseline[name], (key, name)
    elapsed = time.perf_counter() - t0
    report(f"9 PASS cli determinism: 5 commands x 2 runs x threads {{1,8}} "
           f"byte-identical ({elapsed:.1f} s)")


def test_criterion_10_lut_accuracy():
    t0 = time.perf_counter()
    results = {}
    for name, fn in (("exp", np.exp),
                     ("silu", lambda x: x / (1.0 + np.exp(-x)))):
        lut = eng.build_all_luts()[name]
        xs = np.linspace(lut.lo_fixed, lut.lo_fixed + 1023 * (1 << lut.step_shift),
                         1 << 16).astype(np.int64)
        assert xs.size >= 2 ** 16
        got = eng.lut_eval(lut, xs).astype(np.float64) * 2.0 ** (-lut.out_frac)
        want = fn(xs / 2.0 ** lut.in_frac)
        results[name] = float(np.abs(got - want).max())
        assert results[name] <= 2.0 ** (-10)
    elapsed = time.perf_counter() - t0
    report(f"10 PASS luts: exp max err {results['exp']:.2e}, silu max err "
           f"{results['silu']:.2e} <= 2^-10 over 2^16-point sweeps ({elapsed:.1f} s)")
