"""Post-training quantization toolchain.

Per-channel uniform weight quantization (8/4 bit), ternary (2-bit)
quantization with 16-weights-per-word packing, power-of-two activation
calibration, optional per-channel bias correction, and a fake-quantized
forward pass that mirrors the float model with quantize/dequantize inserted
at every weight and activation point.

Rounding: weight and activation quantization round half away from zero;
the integer execution paths use round-half-up shifts (see engine module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as fm

MODES = ("fp32", "w8a8", "w4a8", "w2a8", "fakequant")
MAX_EXPONENT = 24  # finest activation grid 2^-24; image.load_image holds images to it
DEFAULT_CLIP_PCT = 99.9


class CalibrationError(ValueError):
    """Calibration preconditions violated (empty stats, missing scales)."""


def round_half_away(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


@dataclass
class QuantizedTensor:
    """Per-channel symmetric integer weights: value = q * scales[row]."""
    q: np.ndarray        # int8, shape (channels, ...) with q in [-(2^(b-1)-1), 2^(b-1)-1]
    scales: np.ndarray   # float64, (channels,)
    bits: int

    def dequant(self) -> np.ndarray:
        shape = (-1,) + (1,) * (self.q.ndim - 1)
        return self.q.astype(np.float64) * self.scales.reshape(shape)


@dataclass
class TernaryPacked:
    """{-1,0,+1} weights as 2-bit fields ({-1,0,+1} -> {0,1,2}), 16 per word.

    Weight i occupies bits [2i mod 32, 2i mod 32 + 1] of word i // 16,
    first weight in the least-significant bits.
    """
    words: np.ndarray  # uint32
    count: int
    shape: tuple[int, ...]
    scales: np.ndarray


@dataclass
class Pow2ActQuant:
    exponent: int
    bits: int = 8
    signed: bool = True

    @property
    def scale(self) -> float:
        return 2.0 ** (-self.exponent)

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1


def quantize_weights(w: np.ndarray, bits: int) -> QuantizedTensor:
    """Symmetric per-output-channel quantization: s_c = max|row| / (2^(b-1)-1).

    All-zero rows get scale 1 and q = 0.
    """
    if bits not in (4, 8):
        raise ValueError("bits must be 4 or 8 (use ternarize for 2-bit)")
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    flat = w.reshape(w.shape[0], -1)
    qmax = (1 << (bits - 1)) - 1
    absmax = np.abs(flat).max(axis=1)
    scales = np.where(absmax > 0, absmax / qmax, 1.0)
    q = round_half_away(flat / scales[:, None])
    q = np.clip(q, -qmax, qmax).astype(np.int8)
    return QuantizedTensor(q.reshape(w.shape), scales, bits)


def ternarize(w: np.ndarray, threshold_factor: float = 0.7) -> QuantizedTensor:
    """Per-channel ternary quantization.

    Threshold t_c = threshold_factor * mean|row|; weights above it keep their
    sign, the rest become zero. The channel scale is the mean magnitude of the
    surviving weights (1.0 when nothing survives).
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    flat = w.reshape(w.shape[0], -1)
    t = threshold_factor * np.abs(flat).mean(axis=1)
    keep = np.abs(flat) > t[:, None]
    q = np.where(keep, np.sign(flat), 0.0).astype(np.int8)
    sums = np.where(keep, np.abs(flat), 0.0).sum(axis=1)
    counts = keep.sum(axis=1)
    scales = np.where(counts > 0, sums / np.maximum(counts, 1), 1.0)
    return QuantizedTensor(q.reshape(w.shape), scales, 2)


def pack_ternary(q: np.ndarray, scales: np.ndarray | None = None) -> TernaryPacked:
    q = np.asarray(q)
    flat = q.reshape(-1).astype(np.int64)
    if flat.size and (flat.min() < -1 or flat.max() > 1):
        raise ValueError("ternary values must be in {-1, 0, +1}")
    enc = (flat + 1).astype(np.uint64)  # {-1,0,1} -> {0,1,2}
    n_words = (flat.size + 15) // 16
    padded = np.ones(n_words * 16, dtype=np.uint64)  # pad fields encode 0
    padded[:flat.size] = enc
    fields = padded.reshape(n_words, 16)
    shifts = (2 * np.arange(16, dtype=np.uint64))
    words = (fields << shifts).sum(axis=1).astype(np.uint32)
    if scales is None:
        scales = np.ones(q.shape[0] if q.ndim > 1 else 1)
    return TernaryPacked(words, flat.size, tuple(q.shape), np.asarray(scales, np.float64))


def unpack_ternary(packed: TernaryPacked) -> np.ndarray:
    words = packed.words.astype(np.uint64)
    shifts = (2 * np.arange(16, dtype=np.uint64))
    fields = (words[:, None] >> shifts) & np.uint64(3)
    vals = fields.astype(np.int8) - 1
    flat = vals.reshape(-1)[:packed.count]
    if np.any(fields.reshape(-1)[:packed.count] > 2):
        raise ValueError("invalid 2-bit field value 3")
    return flat.reshape(packed.shape)


@dataclass
class CalibStats:
    """Running activation statistics; the clipping point is the max over
    batches of each batch's |a| percentile, which is monotone under supersets
    and invariant under duplicated batches."""
    clip_pct: float = DEFAULT_CLIP_PCT
    count: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf
    p_clip: float = 0.0

    def add(self, a: np.ndarray):
        a = np.asarray(a, dtype=np.float64)
        if a.size == 0:
            return
        self.count += a.size
        self.minimum = min(self.minimum, float(a.min()))
        self.maximum = max(self.maximum, float(a.max()))
        self.p_clip = max(self.p_clip, float(np.percentile(np.abs(a), self.clip_pct)))


def choose_pow2_scale(stats: CalibStats | float, bits: int = 8,
                      signed: bool = True) -> Pow2ActQuant:
    """Largest exponent n in [0, MAX_EXPONENT] such that qmax * 2^-n still
    covers the clipping point, i.e. the finest power-of-two grid that does
    not clip below it. Degenerate all-zero statistics take MAX_EXPONENT."""
    if isinstance(stats, CalibStats):
        if stats.count == 0:
            raise CalibrationError("empty calibration statistics")
        p = stats.p_clip
    else:
        p = float(stats)
    qmax = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
    if p <= 0.0:
        return Pow2ActQuant(MAX_EXPONENT, bits, signed)
    n = int(math.floor(math.log2(qmax / p))) if qmax > p else 0
    while qmax * 2.0 ** (-(n + 1)) >= p:
        n += 1
    while n > 0 and qmax * 2.0 ** (-n) < p:
        n -= 1
    return Pow2ActQuant(max(0, min(n, MAX_EXPONENT)), bits, signed)


def quantize_activation(a: np.ndarray, n: int, bits: int = 8) -> np.ndarray:
    qmax = (1 << (bits - 1)) - 1
    q = round_half_away(np.asarray(a, dtype=np.float64) * 2.0 ** n)
    return np.clip(q, -qmax, qmax).astype(np.int32)


def fake_quantize(a: np.ndarray, n: int, bits: int = 8) -> np.ndarray:
    return quantize_activation(a, n, bits).astype(np.float64) * 2.0 ** (-n)


# ---------------------------------------------------------------------------
# model-level quantization

def layer_catalog(cfg: fm.ModelConfig) -> list[dict]:
    """Weighted layers in walk order: ``dict(name, in_tap, out_taps)`` with
    ``out_taps`` the ``(tap, rows)`` its output rows feed (empty for the head)."""
    return [dict(name=name, in_tap=in_tap, out_taps=list(out_taps))
            for name, in_tap, out_taps in fm.graph(cfg)[1]]


def weight_arrays(weights: fm.FembaWeights, cfg: fm.ModelConfig) -> dict[str, np.ndarray]:
    """All quantizable weight tensors as (out_channels, ...) float arrays."""
    ops = fm.FloatOps(weights, cfg)
    out = {layer["name"]: ops.weight(layer["name"])[0] for layer in layer_catalog(cfg)}
    out["pos"] = ops.pos
    for i in range(cfg.n_blocks):
        for d in ("fwd", "bwd"):
            a, d_skip = ops.scan(i, d)
            out[f"blocks.{i}.{d}.a_mat"] = a
            out[f"blocks.{i}.{d}.d_skip"] = d_skip.reshape(1, -1)  # per-tensor scale
    return out


def bias_arrays(weights: fm.FembaWeights, cfg: fm.ModelConfig) -> dict[str, np.ndarray]:
    """Float biases per weighted layer; layers without a trained bias get
    zeros so bias correction has a place to land."""
    ops = fm.FloatOps(weights, cfg)
    out = {}
    for layer in layer_catalog(cfg):
        w, b = ops.weight(layer["name"])
        out[layer["name"]] = np.zeros(w.shape[0]) if b is None else b.copy()
    return out


@dataclass
class QuantArtifacts:
    cfg: fm.ModelConfig
    mode: str
    weights_q: dict[str, QuantizedTensor] = field(default_factory=dict)
    biases: dict[str, np.ndarray] = field(default_factory=dict)
    act: dict[str, Pow2ActQuant] = field(default_factory=dict)

    def exponent(self, tap: str) -> int:
        if tap not in self.act:
            raise CalibrationError(f"missing activation scale for {tap!r}")
        return self.act[tap].exponent


def calibrate(weights: fm.FembaWeights, cfg: fm.ModelConfig, windows,
              clip_pct: float = DEFAULT_CLIP_PCT) -> dict[str, Pow2ActQuant]:
    """Float forward over the calibration windows, recording statistics at
    every quantization point, then power-of-two scale selection per tap."""
    windows = list(windows)
    if not windows:
        raise CalibrationError("calibration requires at least one window")
    taps = fm.quant_points(cfg)
    stats = {t: CalibStats(clip_pct=clip_pct) for t in taps}
    for w in windows:
        _, trace = fm.forward_with_trace(w, weights, cfg)
        for t in taps:
            stats[t].add(trace[t])
    return {t: choose_pow2_scale(stats[t]) for t in taps}


def quantize_model(weights: fm.FembaWeights, cfg: fm.ModelConfig, mode: str,
                   calib_windows=None, clip_pct: float = DEFAULT_CLIP_PCT,
                   precision_overrides: dict[str, int] | None = None,
                   run_bias_correct: bool = False) -> QuantArtifacts:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    art = QuantArtifacts(cfg=cfg, mode=mode)
    if mode == "fp32":
        return art
    bits = {"w8a8": 8, "w4a8": 4, "w2a8": 2, "fakequant": 8}[mode]
    overrides = precision_overrides or {}
    for name, arr in weight_arrays(weights, cfg).items():
        b = overrides.get(name, bits)
        art.weights_q[name] = ternarize(arr) if b == 2 else quantize_weights(arr, b)
    art.biases = bias_arrays(weights, cfg)
    if calib_windows is None:
        raise CalibrationError(f"mode {mode!r} requires calibration windows")
    art.act = calibrate(weights, cfg, calib_windows, clip_pct)
    if run_bias_correct:
        bias_correct(weights, cfg, art, calib_windows)
    return art


# ---------------------------------------------------------------------------
# fake-quantized forward (float semantics)

class _FakeQuantOps(fm.FloatOps):
    """Op set of the fake-quantized model: dequantized weights, the
    (correctable) biases of the artifacts, and quantize-dequantize at every
    tap. Fusion keeps the float model's projection."""

    def __init__(self, weights: fm.FembaWeights, cfg: fm.ModelConfig, art: QuantArtifacts):
        super().__init__(weights, cfg)
        self.art = art
        self.pos = art.weights_q["pos"].dequant()

    def weight(self, name: str):
        return self.art.weights_q[name].dequant(), self.art.biases[name]

    def scan(self, i: int, d: str):
        p = f"blocks.{i}.{d}."
        return (self.art.weights_q[p + "a_mat"].dequant(),
                self.art.weights_q[p + "d_skip"].dequant().reshape(-1))

    def qdq(self, x: np.ndarray, tap: str) -> np.ndarray:
        return fake_quantize(x, self.art.exponent(tap))


def fake_quant_forward(weights: fm.FembaWeights, cfg: fm.ModelConfig,
                       art: QuantArtifacts, window: np.ndarray,
                       trace: dict | None = None) -> np.ndarray:
    """Float arithmetic with quantize->dequantize at every weight and
    activation point. With mode fp32 this is the plain float forward."""
    if art.mode == "fp32":
        return fm.forward(window, weights, cfg, trace=trace)
    return fm.Walk(_FakeQuantOps(weights, cfg, art), cfg, trace).run(window)


def bias_correct(weights: fm.FembaWeights, cfg: fm.ModelConfig,
                 art: QuantArtifacts, windows) -> dict[str, np.ndarray]:
    """Per-output-channel bias correction (Nagel et al., arXiv:1906.04721).

    Layers are corrected in topological order; each correction adds the mean
    (over the calibration set and sequence positions) of float minus
    fake-quant output of the layer, read from both walks' ``linear:<name>``
    trace entries, to its bias, exactly zeroing that layer's mean error
    before moving downstream.
    """
    windows = list(windows)
    if not art.act:
        raise CalibrationError("bias correction requires calibrated scales")
    float_traces = [fm.forward_with_trace(w, weights, cfg)[1] for w in windows]
    corrections = {}
    for layer in layer_catalog(cfg):
        name = layer["name"]
        key = "linear:" + name
        diffs = []
        for w, ftr in zip(windows, float_traces):
            qtr: dict = {}
            fake_quant_forward(weights, cfg, art, w, trace=qtr)
            diffs.append(np.atleast_2d(ftr[key]) - np.atleast_2d(qtr[key]))
        delta = np.concatenate(diffs, axis=0).mean(axis=0)
        art.biases[name] = art.biases[name] + delta
        corrections[name] = delta
    return corrections
