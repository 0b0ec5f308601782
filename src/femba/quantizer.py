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
from functools import cached_property

import numpy as np

from . import model as fm

# every deployment mode and the bits of its weights; a mode's position is
# its index in an image's config
MODES = {"fp32": 32, "w8a8": 8, "w4a8": 4, "w2a8": 2}
MAX_EXPONENT = 24  # finest activation grid 2^-24; image.load_image holds images to it
DEFAULT_CLIP_PCT = 99.9
TERNARY_THRESHOLD = 0.7  # ternarize keeps the weights above this share of their row's mean |w|


class CalibrationError(ValueError):
    """A quantized mode was asked for without calibration windows."""


def round_half_away(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


@dataclass
class QuantizedTensor:
    """Per-channel symmetric integer weights: value = q * scales[row]."""
    q: np.ndarray        # int8, shape (channels, ...) with q in [-(2^(b-1)-1), 2^(b-1)-1]
    scales: np.ndarray   # float64, (channels,)
    bits: int

    @cached_property
    def dequant(self) -> np.ndarray:
        """q * scales[row] in float64, computed on first use and read-only."""
        shape = (-1,) + (1,) * (self.q.ndim - 1)
        w = self.q.astype(np.float64) * self.scales.reshape(shape)
        w.flags.writeable = False
        return w


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


def ternarize(w: np.ndarray) -> QuantizedTensor:
    """Per-channel ternary quantization.

    Threshold t_c = TERNARY_THRESHOLD * mean|row|; weights above it keep their
    sign, the rest become zero. The channel scale is the mean magnitude of the
    surviving weights (1.0 when nothing survives).
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    flat = w.reshape(w.shape[0], -1)
    t = TERNARY_THRESHOLD * np.abs(flat).mean(axis=1)
    keep = np.abs(flat) > t[:, None]
    q = np.where(keep, np.sign(flat), 0.0).astype(np.int8)
    sums = np.where(keep, np.abs(flat), 0.0).sum(axis=1)
    counts = keep.sum(axis=1)
    scales = np.where(counts > 0, sums / np.maximum(counts, 1), 1.0)
    return QuantizedTensor(q.reshape(w.shape), scales, 2)


_FIELD_SHIFTS = np.arange(0, 32, 2, dtype=np.uint32)


def pack_ternary(q: np.ndarray) -> np.ndarray:
    """{-1,0,+1} weights as 2-bit fields ({-1,0,+1} -> {0,1,2}), 16 per
    uint32 word: weight i of the flattened array occupies bits
    [2i mod 32, 2i mod 32 + 1] of word i // 16, first weight in the
    least-significant bits. Padding fields encode 0."""
    flat = np.asarray(q).reshape(-1)
    if flat.size and (flat.min() < -1 or flat.max() > 1):
        raise ValueError("ternary values must be in {-1, 0, +1}")
    n_words = (flat.size + 15) // 16
    fields = np.ones((n_words, 16), dtype=np.uint32)  # pad fields encode 0
    fields.reshape(-1)[:flat.size] = flat + 1  # {-1,0,1} -> {0,1,2}
    fields <<= _FIELD_SHIFTS
    return np.bitwise_or.reduce(fields, axis=1)


def unpack_ternary(words: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The int8 array of ``shape`` that `pack_ternary` packed into ``words``."""
    words = np.asarray(words, dtype=np.uint32)
    fields = ((words[:, None] >> _FIELD_SHIFTS) & np.uint32(3)).reshape(-1)[:math.prod(shape)]
    if np.any(fields > 2):
        raise ValueError("invalid 2-bit field value 3")
    return (fields.astype(np.int8) - 1).reshape(shape)


def choose_pow2_scale(p: float) -> int:
    """The finest power-of-two INT8 grid that does not clip below the
    clipping point p: the largest exponent n in [1, MAX_EXPONENT] with
    127 * 2^-n >= p, else 0 (p above 63.5, or NaN). An all-zero tap
    (p = 0) takes MAX_EXPONENT."""
    return next((n for n in range(MAX_EXPONENT, 0, -1) if 127 * 2.0 ** -n >= p), 0)


# ---------------------------------------------------------------------------
# model-level quantization

def layer_catalog(cfg: fm.ModelConfig) -> list[dict]:
    """Weighted layers in walk order: ``dict(name, in_tap, out_taps)`` with
    ``out_taps`` the ``(tap, rows)`` its output rows feed (empty for the head)."""
    return [dict(name=name, in_tap=in_tap, out_taps=list(out_taps))
            for name, in_tap, out_taps in fm.graph(cfg)[1]]


def tensor_shapes(cfg: fm.ModelConfig):
    """(name, (rows, cols)) of every tensor a deployed model stores: every
    weighted layer of `layer_catalog`, ``pos``, and each branch's ``a_mat``
    and ``d_skip`` (one row, so one per-tensor scale). Plain arithmetic on
    the config, yielded lazily, so `image.load_image` checks an image's
    dims before anything walks the graph and stops at the first entry that
    disagrees, whatever number of blocks a crafted config claims."""
    dm, di, ds, dr = cfg.d_model, cfg.d_inner, cfg.d_state, cfg.dt_rank
    yield "tokenizer", (cfg.n_groups * dm, cfg.n_channels * cfg.patch_size)
    yield "pos", (cfg.n_tokens, dm)
    for i in range(cfg.n_blocks):
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            yield from ((p + "in_proj", (2 * di, dm)), (p + "conv", (di, cfg.d_conv)),
                        (p + "x_proj", (dr + 2 * ds, di)), (p + "dt_proj", (di, dr)),
                        (p + "out_proj", (dm, di)), (p + "a_mat", (di, ds)),
                        (p + "d_skip", (1, di)))
    yield "head", (cfg.n_classes, dm)


@dataclass
class QuantArtifacts:
    mode: str
    weights_q: dict[str, QuantizedTensor] = field(default_factory=dict)
    biases: dict[str, np.ndarray] = field(default_factory=dict)
    act: dict[str, int] = field(default_factory=dict)  # tap -> exponent


def calibrate(weights: dict[str, np.ndarray], cfg: fm.ModelConfig, windows,
              clip_pct: float = DEFAULT_CLIP_PCT) -> dict[str, int]:
    """Each tap's exponent from `choose_pow2_scale` of its clipping point:
    the max over the windows of the float walk's |a| percentile there, which
    never falls as windows are added and ignores duplicated windows."""
    windows = list(windows)
    if not windows:
        raise CalibrationError("calibration requires at least one window")
    p_clip = dict.fromkeys(fm.quant_points(cfg), 0.0)
    for w in windows:
        _, trace = fm.forward_with_trace(w, weights, cfg)
        for t, p in p_clip.items():
            p_clip[t] = max(p, float(np.percentile(np.abs(trace[t]), clip_pct)))
    return {t: choose_pow2_scale(p) for t, p in p_clip.items()}


def quantize_model(weights: dict[str, np.ndarray], cfg: fm.ModelConfig, mode: str,
                   calib_windows=None, clip_pct: float = DEFAULT_CLIP_PCT,
                   precision_overrides: dict[str, int] | None = None,
                   run_bias_correct: bool = False) -> QuantArtifacts:
    """Artifacts of a quantized mode: each tap's exponent from `calibrate`
    over ``calib_windows``, then, from one `model.tensor_table`, every tensor
    of `tensor_shapes` at the mode's bits (or its ``precision_overrides``
    entry) and each weighted layer's float bias, zeros where it has none."""
    quantized = tuple(m for m, bits in MODES.items() if bits < 32)
    if mode not in quantized:
        raise ValueError(f"mode must be one of {quantized}")
    if calib_windows is None:
        raise CalibrationError(f"mode {mode!r} requires calibration windows")
    windows = list(calib_windows)
    art = QuantArtifacts(mode=mode, act=calibrate(weights, cfg, windows, clip_pct))
    overrides = precision_overrides or {}
    table = fm.tensor_table(weights, cfg)
    for name, shape in tensor_shapes(cfg):
        bits, w = overrides.get(name, MODES[mode]), table[name][0].reshape(shape)
        art.weights_q[name] = ternarize(w) if bits == 2 else quantize_weights(w, bits)
    for layer in layer_catalog(cfg):
        w, b = table[layer["name"]]
        art.biases[layer["name"]] = np.zeros(w.shape[0]) if b is None else b.copy()
    if run_bias_correct:
        bias_correct(weights, cfg, art, windows)
    return art


# ---------------------------------------------------------------------------
# fake-quantized forward (float semantics)

def fake_quant_forward(cfg: fm.ModelConfig, art: QuantArtifacts, window: np.ndarray,
                       trace: dict | None = None) -> np.ndarray:
    """Float arithmetic with quantize->dequantize at every weight and
    activation point, over a tensor table of the artifacts' dequantized
    weights, each built once, and their current (correctable) biases."""
    table = {name: (qt.dequant, art.biases.get(name)) for name, qt in art.weights_q.items()}
    return fm.Walk(table, cfg, art.act, trace).run(window)


def bias_correct(weights: dict[str, np.ndarray], cfg: fm.ModelConfig,
                 art: QuantArtifacts, windows) -> dict[str, np.ndarray]:
    """Per-output-channel bias correction (Nagel et al., arXiv:1906.04721).

    Layers are corrected in topological order; each correction adds the mean
    (over the calibration set and sequence positions) of float minus
    fake-quant output of the layer, read from both walks' ``linear:<name>``
    trace entries, to its bias, exactly zeroing that layer's mean error
    before moving downstream.
    """
    windows = list(windows)
    float_traces = [{k: v for k, v in fm.forward_with_trace(w, weights, cfg)[1].items()
                     if k.startswith("linear:")} for w in windows]
    corrections = {}
    for layer in layer_catalog(cfg):
        name = layer["name"]
        key = "linear:" + name
        diffs = []
        for w, ftr in zip(windows, float_traces):
            qtr: dict = {}
            fake_quant_forward(cfg, art, w, trace=qtr)
            diffs.append(np.atleast_2d(ftr[key]) - np.atleast_2d(qtr[key]))
        delta = np.concatenate(diffs, axis=0).mean(axis=0)
        art.biases[name] = art.biases[name] + delta
        corrections[name] = delta
    return corrections
