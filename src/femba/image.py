"""Model containers: float checkpoints and quantized deployment images.

The deployment image carries everything the integer paths need: INT8 or
ternary-packed weights, INT32 biases in accumulator domain, int16
requantization multipliers with per-tensor shifts, power-of-two activation
exponents, and the scan lookup tables. All scale folding happens here, once,
so the engine and the integer-semantics reference consume identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import container as ct
from . import engine as eng
from . import model as fm
from . import quantizer as qz

INT32_MAX = 2**31 - 1
M_BITS = 15  # requant multipliers are int16, normalized so max(m) is in [2^14, 2^15)


def fold_mk(ratios) -> tuple[np.ndarray, int]:
    """Represent positive real ratios as (m * 2^-k) with int16 m and a shared k.

    A power-of-two ratio maps exactly to m = 2^14, so requantizing with it is
    identical to a round-half-up shift.
    """
    r = np.atleast_1d(np.asarray(ratios, dtype=np.float64))
    if np.any(r < 0) or not np.all(np.isfinite(r)):
        raise ValueError("requant ratios must be finite and non-negative")
    rmax = float(r.max())
    if rmax == 0.0:
        return np.zeros(r.size, dtype=np.int64), 0
    _, ex = math.frexp(rmax)
    k = M_BITS - ex
    if k > 62:  # vanishing ratios quantize to zero; keep shifts in int64 range
        k = 62
    m = np.rint(r * 2.0 ** k).astype(np.int64)
    if m.max() > 2**15 - 1:
        k -= 1
        m = np.rint(r * 2.0 ** k).astype(np.int64)
    return m, int(k)


def _bias_to_int32(bias: np.ndarray, acc_lsb: np.ndarray) -> np.ndarray:
    q = qz.round_half_away(np.asarray(bias, dtype=np.float64) / acc_lsb)
    return np.clip(q, -INT32_MAX, INT32_MAX).astype(np.int64)


# ---------------------------------------------------------------------------
# float checkpoints

_FUSION_IDX = {name: i for i, name in enumerate(fm.FUSION_MODES)}
_MODE_IDX = {name: i for i, name in enumerate(qz.MODES)}

_BRANCH_FIELDS = ("in_proj", "conv_w", "conv_b", "x_proj", "dt_proj",
                  "dt_bias", "a_log", "d_skip", "out_proj")


def _config_vec(cfg: fm.ModelConfig, mode: str) -> np.ndarray:
    return np.array([cfg.d_model, cfg.d_inner, cfg.d_state, cfg.d_conv,
                     cfg.n_blocks, cfg.n_tokens, cfg.n_channels, cfg.n_samples,
                     cfg.patch_size, cfg.n_classes, cfg.dt_rank,
                     _FUSION_IDX[cfg.fusion], _MODE_IDX[mode]], dtype=np.int32)


def _config_from_vec(vec: np.ndarray, fvec: np.ndarray) -> tuple[fm.ModelConfig, str]:
    cfg = fm.ModelConfig(
        d_model=int(vec[0]), d_inner=int(vec[1]), d_state=int(vec[2]),
        d_conv=int(vec[3]), n_blocks=int(vec[4]), n_tokens=int(vec[5]),
        n_channels=int(vec[6]), n_samples=int(vec[7]), patch_size=int(vec[8]),
        n_classes=int(vec[9]), dt_rank=int(vec[10]),
        fusion=fm.FUSION_MODES[int(vec[11])],
        dt_min=float(fvec[0]), dt_max=float(fvec[1]))
    return cfg, qz.MODES[int(vec[12])]


def save_checkpoint(weights: fm.FembaWeights, cfg: fm.ModelConfig, path):
    c = checkpoint_container(weights, cfg)
    c.save(path)


def checkpoint_container(weights: fm.FembaWeights, cfg: fm.ModelConfig) -> ct.Container:
    c = ct.Container()
    c.add("config", ct.DT_I32, _config_vec(cfg, "fp32"))
    c.add("config_f", ct.DT_F32, np.array([cfg.dt_min, cfg.dt_max], dtype=np.float32))
    c.add("tokenizer.weight", ct.DT_F32, weights.tok_kernel.astype(np.float32))
    c.add("tokenizer.bias", ct.DT_F32, weights.tok_bias.astype(np.float32))
    c.add("pos_embed", ct.DT_F32, weights.pos_embed.astype(np.float32))
    for i, blk in enumerate(weights.blocks):
        for d, br in (("fwd", blk.fwd), ("bwd", blk.bwd)):
            for name in _BRANCH_FIELDS:
                c.add(f"blocks.{i}.{d}.{name}", ct.DT_F32,
                      getattr(br, name).astype(np.float32))
        if blk.fuse_proj is not None:
            c.add(f"blocks.{i}.fuse_proj", ct.DT_F32, blk.fuse_proj.astype(np.float32))
    c.add("head.weight", ct.DT_F32, weights.head_w.astype(np.float32))
    c.add("head.bias", ct.DT_F32, weights.head_b.astype(np.float32))
    return c


def load_checkpoint(path) -> tuple[fm.FembaWeights, fm.ModelConfig]:
    c = ct.Container.load(path)
    cfg, _ = _config_from_vec(c.array("config"), c.array("config_f"))
    blocks = []
    for i in range(cfg.n_blocks):
        branches = {}
        for d in ("fwd", "bwd"):
            kw = {name: c.array(f"blocks.{i}.{d}.{name}").astype(np.float64)
                  for name in _BRANCH_FIELDS}
            branches[d] = fm.BranchParams(**kw)
        fuse = None
        if f"blocks.{i}.fuse_proj" in c:
            fuse = c.array(f"blocks.{i}.fuse_proj").astype(np.float64)
        blocks.append(fm.BlockParams(branches["fwd"], branches["bwd"], fuse))
    w = fm.FembaWeights(
        tok_kernel=c.array("tokenizer.weight").astype(np.float64),
        tok_bias=c.array("tokenizer.bias").astype(np.float64),
        pos_embed=c.array("pos_embed").astype(np.float64),
        blocks=blocks,
        head_w=c.array("head.weight").astype(np.float64),
        head_b=c.array("head.bias").astype(np.float64))
    return w, cfg


# ---------------------------------------------------------------------------
# deployment image

@dataclass
class MatmulLayer:
    kind: str  # "i8" | "t2"
    shape: tuple[int, int]
    m: np.ndarray
    k: int
    bias: np.ndarray | None
    q: np.ndarray | None = None
    words: np.ndarray | None = None


@dataclass
class ScanParams:
    a_kind: str
    a_m: np.ndarray
    a_k: int
    d_kind: str
    d_m: int
    d_k: int
    a_q: np.ndarray | None = None
    a_words: np.ndarray | None = None
    d_q: np.ndarray | None = None
    d_words: np.ndarray | None = None


@dataclass
class EngineImage:
    cfg: fm.ModelConfig
    mode: str
    act_exp: dict[str, int]
    layers: dict[str, MatmulLayer] = field(default_factory=dict)
    scan: dict[tuple[int, str], ScanParams] = field(default_factory=dict)
    pos_kind: str = "i8"
    pos_q: np.ndarray | None = None
    pos_words: np.ndarray | None = None
    pos_m: np.ndarray | None = None
    pos_k: int = 0
    pool_m: int = 0
    pool_k: int = 0
    head_kind: str = "i8"
    head_q: np.ndarray | None = None
    head_words: np.ndarray | None = None
    head_bias: np.ndarray | None = None
    head_dequant: np.ndarray | None = None
    luts: dict[str, eng.Lut] = field(default_factory=dict)


def _add_weight(c: ct.Container, name: str, qt: qz.QuantizedTensor):
    if qt.bits == 2:
        packed = qz.pack_ternary(qt.q, qt.scales)
        c.add(name + ".q", ct.DT_T2, packed.words, dims=qt.q.shape)
    else:
        c.add(name + ".q", ct.DT_I8, qt.q.astype(np.int8))


def _add_mk(c: ct.Container, name: str, m: np.ndarray, k: int):
    c.add(name + ".m", ct.DT_Q15, m.astype(np.int16))
    c.add(name + ".k", ct.DT_I8, np.array([k], dtype=np.int8))


def build_image(cfg: fm.ModelConfig, art: qz.QuantArtifacts) -> ct.Container:
    """Fold quantization artifacts into the self-contained deployment image."""
    if art.mode == "fp32" or not art.act:
        raise qz.CalibrationError("deployment image requires calibrated artifacts")
    if cfg.fusion == "concat_project":
        raise eng.EngineConfigError("integer paths support sum/mean fusion only")
    exp = {t: art.exponent(t) for t in fm.quant_points(cfg)}
    c = ct.Container()
    c.add("config", ct.DT_I32, _config_vec(cfg, art.mode))
    c.add("config_f", ct.DT_F32, np.array([cfg.dt_min, cfg.dt_max], dtype=np.float32))
    c.add("act_exponents", ct.DT_I8, np.array(list(exp.values()), dtype=np.int8))

    for layer in qz.layer_catalog(cfg):
        name = layer["name"]
        qt = art.weights_q[name]
        n_in = exp[layer["in_tap"]]
        acc_lsb = 2.0 ** (-n_in) * qt.scales
        _add_weight(c, name, qt)
        if name == "head":
            dequant = 2.0 ** (-n_in) * qt.scales
            c.add("head.dequant", ct.DT_F32, dequant.astype(np.float32))
            c.add("head.bias", ct.DT_I32,
                  _bias_to_int32(art.biases[name], dequant).astype(np.int32))
            continue
        n_out_rows = np.concatenate([
            np.full(rows, exp[tap], dtype=np.int64) for tap, rows in layer["out_taps"]])
        ratios = qt.scales * np.exp2(n_out_rows - n_in)
        m, k = fold_mk(ratios)
        _add_mk(c, name, m, k)
        c.add(name + ".bias", ct.DT_I32,
              _bias_to_int32(art.biases[name], acc_lsb).astype(np.int32))

    # positional embedding, aligned onto the tokenizer-output grid
    pos = art.weights_q["pos"]
    _add_weight(c, "pos", pos)
    m, k = fold_mk(pos.scales * 2.0 ** exp["tok_conv"])
    _add_mk(c, "pos", m, k)

    # scan parameters per direction
    for i in range(cfg.n_blocks):
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            a = art.weights_q[p + "a_mat"]
            _add_weight(c, p + "a_mat", a)
            m, k = fold_mk(a.scales * 2.0 ** (eng.EXP_IN_FRAC - eng.DT_FRAC))
            _add_mk(c, p + "a_mat", m, k)
            dsk = art.weights_q[p + "d_skip"]
            _add_weight(c, p + "d_skip", dsk)
            r = dsk.scales[0] * 2.0 ** ((exp[p + "c"] + 15) - exp[p + "u"])
            m, k = fold_mk(np.array([r]))
            _add_mk(c, p + "d_skip", m, k)

    last_out = exp[f"blocks.{cfg.n_blocks - 1}.out"]
    m, k = fold_mk(np.array([2.0 ** (exp["pooled"] - last_out) / cfg.n_tokens]))
    _add_mk(c, "pool", m, k)

    for lut in eng.build_all_luts(cfg.dt_max).values():
        c.add(f"luts.{lut.name}", ct.DT_Q15, lut.entries)
        c.add(f"luts.{lut.name}.meta", ct.DT_I32, np.array(
            [lut.lo_fixed, lut.in_frac, lut.out_frac, lut.step_shift], dtype=np.int32))
    return c


def _read_weight(c: ct.Container, name: str):
    e = c.get(name + ".q")
    if e.dtype == ct.DT_T2:
        words = e.data.astype(np.uint32)
        _check_ternary(name + ".q", words, int(np.prod(e.dims)))
        return "t2", None, words, tuple(e.dims)
    return "i8", c.array(name + ".q").astype(np.int8), None, tuple(e.dims)


def _check_ternary(name: str, words: np.ndarray, count: int):
    """The 2-bit field 3 encodes no weight; the integer paths would read it
    differently, so no image may carry one among its first ``count`` fields."""
    both = words & (words >> np.uint32(1)) & np.uint32(0x55555555)  # low bit of each 3
    full, rem = divmod(count, 16)
    if np.any(both[:full]) or (rem and int(both[full]) & ((1 << 2 * rem) - 1)):
        raise ct.FormatError(f"entry {name!r}: invalid 2-bit field value 3")


def _read_mk(c: ct.Container, name: str):
    return (c.array(name + ".m").astype(np.int64),
            int(c.array(name + ".k")[0]))


def _check_requant_range(name: str, acc_bound: int, m: np.ndarray, k: int):
    """Requantization must stay inside int64: |acc| * m, left-shifted when k
    is negative, may never reach 2^62."""
    m_max = int(np.abs(np.asarray(m)).max(initial=0))
    worst = acc_bound * m_max * 2 ** max(0, -int(k))
    if worst >= 2**62:
        raise eng.EngineConfigError(
            f"{name}: requantizer range {worst:.3g} exceeds the int64 budget")


def load_image(source) -> EngineImage:
    """Parse and validate a deployment image container.

    Raises EngineConfigError when a layer could overflow its INT32
    accumulator, any requantizer could leave int64 range, or the container
    is not an integer-mode image.
    """
    c = source if isinstance(source, ct.Container) else ct.Container.load(source)
    cfg, mode = _config_from_vec(c.array("config"), c.array("config_f"))
    if mode == "fp32":
        raise eng.EngineConfigError("container is a float checkpoint, not a deployment image")
    taps = fm.quant_points(cfg)
    exps = c.array("act_exponents").astype(int)
    if exps.size != len(taps):
        raise ct.FormatError(
            f"act_exponents holds {exps.size} exponents, the config has {len(taps)} taps")
    img = EngineImage(cfg=cfg, mode=mode, act_exp=dict(zip(taps, exps)))

    for layer in qz.layer_catalog(cfg):
        name = layer["name"]
        kind, q, words, shape = _read_weight(c, name)
        if name == "head":
            img.head_kind, img.head_q, img.head_words = kind, q, words
            img.head_bias = c.array("head.bias").astype(np.int64)
            img.head_dequant = c.array("head.dequant").astype(np.float64)
            head_bound = shape[1] * 127 * 127 + int(np.abs(img.head_bias).max(initial=0))
            if head_bound > INT32_MAX:
                raise eng.EngineConfigError(
                    f"head: INT32 logit bound exceeded ({head_bound})")
            continue
        m, k = _read_mk(c, name)
        bias = c.array(name + ".bias").astype(np.int64)
        d_in = shape[1]
        bound = d_in * 127 * 127 + int(np.abs(bias).max(initial=0))
        if bound > INT32_MAX:
            raise eng.EngineConfigError(
                f"layer {name}: INT32 accumulator bound exceeded ({bound})")
        _check_requant_range(name, bound, m, k)
        img.layers[name] = MatmulLayer(kind=kind, shape=shape, m=m, k=k,
                                       bias=bias, q=q, words=words)

    img.pos_kind, img.pos_q, img.pos_words, _ = _read_weight(c, "pos")
    img.pos_m, img.pos_k = _read_mk(c, "pos")
    _check_requant_range("pos", 127, img.pos_m, img.pos_k)

    dt_peak = (1 << eng.DT_FRAC) * int(np.ceil(cfg.dt_max))
    for i in range(cfg.n_blocks):
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            a_kind, a_q, a_words, _ = _read_weight(c, p + "a_mat")
            a_m, a_k = _read_mk(c, p + "a_mat")
            _check_requant_range(p + "a_mat", dt_peak * 127, a_m, a_k)
            d_kind, d_q, d_words, _ = _read_weight(c, p + "d_skip")
            d_m, d_k = _read_mk(c, p + "d_skip")
            _check_requant_range(p + "d_skip", 127 * 127, d_m, d_k)
            img.scan[(i, d)] = ScanParams(
                a_kind=a_kind, a_q=None if a_q is None else a_q.reshape(cfg.d_inner, cfg.d_state),
                a_words=a_words, a_m=a_m, a_k=a_k,
                d_kind=d_kind, d_q=None if d_q is None else d_q.reshape(-1),
                d_words=d_words, d_m=int(d_m[0]), d_k=d_k)

    img.pool_m, img.pool_k = _read_mk(c, "pool")
    img.pool_m = int(img.pool_m[0])
    _check_requant_range("pool", 127 * cfg.n_tokens, np.array([img.pool_m]), img.pool_k)

    for name in ("exp", "silu", "softplus"):
        meta = c.array(f"luts.{name}.meta")
        img.luts[name] = eng.Lut(name, c.array(f"luts.{name}").astype(np.int16),
                                 int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3]))
    return img


def image_summary(c: ct.Container) -> str:
    """Per-tensor bits and sizes plus the total image size, as a text table."""
    lines = [f"{'entry':<34} {'dtype':>6} {'bits':>4} {'elems':>10} {'bytes':>10}"]
    total = 0
    dtype_names = {ct.DT_F32: "f32", ct.DT_I8: "i8", ct.DT_T2: "t2",
                   ct.DT_Q15: "q15", ct.DT_I32: "i32"}
    bits = {ct.DT_F32: 32, ct.DT_I8: 8, ct.DT_T2: 2, ct.DT_Q15: 16, ct.DT_I32: 32}
    for name, e in c.entries.items():
        nbytes = len(e.payload_bytes())
        total += nbytes
        lines.append(f"{name:<34} {dtype_names[e.dtype]:>6} {bits[e.dtype]:>4} "
                     f"{int(np.prod(e.dims)):>10} {nbytes:>10}")
    lines.append(f"{'TOTAL payload':<34} {'':>6} {'':>4} {'':>10} {total:>10}")
    return "\n".join(lines)
