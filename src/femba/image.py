"""Model containers: float checkpoints and quantized deployment images.

The deployment image carries everything the integer paths need: power-of-two
activation exponents, the scan lookup tables, the pooling requantizer, the
head's dequantization scales, and one record per quantized tensor
(`QTensor`): its INT8 or ternary-packed values and, where the tensor has
them, an int16 requantization multiplier per row with a per-tensor shift k
and an INT32 bias per row in accumulator domain. All scale folding happens
here, once, so the engine and the integer-semantics reference consume
identical numbers.

`load_image` checks every bound the integer paths rely on before either runs:
the config against the entries' dims, each accumulator against INT32, each
requantizer against int64 with |k| <= MAX_SHIFT, and each activation
exponent against [0, quantizer.MAX_EXPONENT] = [0, 24]. Within that range
the shifts between activation grids stay in [-24, 44] bits (negative is a
left shift): the widest right shift is the scan input's n_u + n_b - 4, and
no left shift of an exponent difference exceeds 24 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import container as ct
from . import engine as eng
from . import model as fm
from . import quantizer as qz

INT32_MAX = 2**31 - 1
MAX_SHIFT = 62  # |k| of every requantizer, so its shifts stay inside int64
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
    if k > MAX_SHIFT:  # vanishing ratios quantize to zero
        k = MAX_SHIFT
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
_CONFIG_DIMS = ("d_model", "d_inner", "d_state", "d_conv", "n_blocks", "n_tokens",
                "n_channels", "n_samples", "patch_size", "n_classes", "dt_rank")

_BRANCH_FIELDS = ("in_proj", "conv_w", "conv_b", "x_proj", "dt_proj",
                  "dt_bias", "a_log", "d_skip", "out_proj")


def _config_vec(cfg: fm.ModelConfig, mode: str) -> np.ndarray:
    return np.array([getattr(cfg, name) for name in _CONFIG_DIMS] +
                    [_FUSION_IDX[cfg.fusion], _MODE_IDX[mode]], dtype=np.int32)


def _config_from_vec(vec: np.ndarray, fvec: np.ndarray) -> tuple[fm.ModelConfig, str]:
    """The config and mode of a ``config``/``config_f`` pair; FormatError
    unless every dim is positive, both indices name a fusion and a mode, and
    0 < dt_min <= dt_max < inf (the scan's step range)."""
    vec, fvec = np.asarray(vec).reshape(-1), np.asarray(fvec, dtype=np.float64).reshape(-1)
    if vec.size != len(_CONFIG_DIMS) + 2 or fvec.size != 2:
        raise ct.FormatError(f"config holds {vec.size} and config_f {fvec.size} values, "
                             f"expected {len(_CONFIG_DIMS) + 2} and 2")
    dims = {name: int(v) for name, v in zip(_CONFIG_DIMS, vec)}
    fusion, mode = int(vec[-2]), int(vec[-1])
    for name, value in dims.items():
        if value < 1:
            raise ct.FormatError(f"config: {name} = {value}, expected at least 1")
    if not 0 <= fusion < len(fm.FUSION_MODES):
        raise ct.FormatError(f"config: fusion index {fusion} names no fusion mode")
    if not 0 <= mode < len(qz.MODES):
        raise ct.FormatError(f"config: mode index {mode} names no mode")
    if not (np.all(np.isfinite(fvec)) and 0 < fvec[0] <= fvec[1]):
        raise ct.FormatError(f"config_f: dt_min, dt_max = {fvec.tolist()}, "
                             "expected 0 < dt_min <= dt_max < inf")
    try:
        cfg = fm.ModelConfig(**dims, fusion=fm.FUSION_MODES[fusion],
                             dt_min=float(fvec[0]), dt_max=float(fvec[1]))
    except ValueError as exc:
        raise ct.FormatError(f"config: {exc}") from exc
    return cfg, qz.MODES[mode]


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
class QTensor:
    """One quantized tensor of a deployment image, of logical dims ``shape``
    (rows, cols): INT8 values ``q`` (kind "i8") or 2-bit fields packed 16 to
    a uint32 word in ``words`` (kind "t2"). ``m`` (int16 per row) and ``k``
    requantize the tensor's products and ``bias`` is its INT32 bias per row;
    each is set only where the tensor has one."""
    kind: str  # "i8" | "t2"
    shape: tuple[int, int]
    q: np.ndarray | None = None
    words: np.ndarray | None = None
    m: np.ndarray | None = None
    k: int = 0
    bias: np.ndarray | None = None


@dataclass
class EngineImage:
    """A loaded deployment image. ``tensors`` maps every layer of
    ``quantizer.layer_catalog``, ``pos`` and each branch's ``a_mat`` and
    ``d_skip`` to its record."""
    cfg: fm.ModelConfig
    mode: str
    act_exp: dict[str, int]
    tensors: dict[str, QTensor]
    pool_m: int
    pool_k: int
    head_dequant: np.ndarray
    luts: dict[str, eng.Lut]


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


def _tensor_shapes(cfg: fm.ModelConfig):
    """(name, dims) of every quantized tensor an image of ``cfg`` holds."""
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


def _vector(c: ct.Container, name: str, dtype: int, size: int) -> np.ndarray:
    """Entry ``name`` as a flat array, checked to hold ``size`` values of
    container dtype ``dtype``."""
    e = c.get(name)
    if e.dtype != dtype or e.data.size != size:
        raise ct.FormatError(f"entry {name!r}: {e.data.size} values of dtype {e.dtype}, "
                             f"expected {size} of dtype {dtype}")
    return e.data.reshape(-1)


def _read_tensor(c: ct.Container, name: str, shape: tuple[int, int]) -> QTensor:
    e = c.get(name + ".q")
    if e.dims != shape or e.dtype not in (ct.DT_I8, ct.DT_T2):
        raise ct.FormatError(f"entry {name + '.q'!r}: dtype {e.dtype} and dims {e.dims}, "
                             f"expected i8 or t2 of the config's dims {shape}")
    if e.dtype == ct.DT_T2:
        words = e.data.astype(np.uint32)
        _check_ternary(name + ".q", words, shape[0] * shape[1])
        return QTensor("t2", shape, words=words)
    return QTensor("i8", shape, q=e.data.reshape(shape).astype(np.int8))


def _check_ternary(name: str, words: np.ndarray, count: int):
    """The 2-bit field 3 encodes no weight; the integer paths would read it
    differently, so no image may carry one among its first ``count`` fields."""
    both = words & (words >> np.uint32(1)) & np.uint32(0x55555555)  # low bit of each 3
    full, rem = divmod(count, 16)
    if np.any(both[:full]) or (rem and int(both[full]) & ((1 << 2 * rem) - 1)):
        raise ct.FormatError(f"entry {name!r}: invalid 2-bit field value 3")


def _read_mk(c: ct.Container, name: str, rows: int):
    return (_vector(c, name + ".m", ct.DT_Q15, rows).astype(np.int64),
            int(_vector(c, name + ".k", ct.DT_I8, 1)[0]))


def _check_requant_range(name: str, acc_bound: int, m: np.ndarray, k: int):
    """Requantization must stay inside int64: the shift k lies in
    [-MAX_SHIFT, MAX_SHIFT], and |acc| * m, left-shifted when k is negative,
    may never reach 2^62."""
    if not -MAX_SHIFT <= k <= MAX_SHIFT:
        raise eng.EngineConfigError(
            f"{name}: requantizer shift {k} outside [-{MAX_SHIFT}, {MAX_SHIFT}]")
    m_max = int(np.abs(np.asarray(m)).max(initial=0))
    worst = acc_bound * m_max * 2 ** max(0, -k)
    if worst >= 2**62:
        raise eng.EngineConfigError(
            f"{name}: requantizer range {worst:.3g} exceeds the int64 budget")


def load_image(source) -> EngineImage:
    """Parse and validate a deployment image container.

    Raises FormatError when the config, an entry's dims or dtype, an
    activation exponent or a lookup table does not fit the integer paths,
    and EngineConfigError when a layer could overflow its INT32 accumulator,
    any requantizer could leave int64 range, or the container is not an
    integer-mode image with sum or mean fusion.
    """
    c = source if isinstance(source, ct.Container) else ct.Container.load(source)
    cfg, mode = _config_from_vec(c.array("config"), c.array("config_f"))
    if mode == "fp32":
        raise eng.EngineConfigError("container is a float checkpoint, not a deployment image")
    if cfg.fusion == "concat_project":
        raise eng.EngineConfigError("integer paths support sum/mean fusion only")
    luts = {name: _read_lut(c, name) for name in eng.LUT_FORMATS}

    # inputs of the requantizers without a bias; a scan step is at most the
    # largest entry of the softplus table
    dt_peak = int(np.abs(luts["softplus"].entries.astype(np.int64)).max())
    input_bound = {"pos": 127, "a_mat": dt_peak * 127, "d_skip": 127 * 127}
    tensors = {}
    # every dim is checked against the entries here, before quant_points
    # walks (and allocates) the config's graph
    for name, shape in _tensor_shapes(cfg):
        t = tensors[name] = _read_tensor(c, name, shape)
        bound = input_bound.get(name.rsplit(".", 1)[-1])
        if bound is None:
            t.bias = _vector(c, name + ".bias", ct.DT_I32, shape[0]).astype(np.int64)
            bound = shape[1] * 127 * 127 + int(np.abs(t.bias).max(initial=0))
            if bound > INT32_MAX:
                raise eng.EngineConfigError(
                    f"{name}: INT32 accumulator bound exceeded ({bound})")
        if name != "head":
            t.m, t.k = _read_mk(c, name, shape[0])
            _check_requant_range(name, bound, t.m, t.k)
    pool_m, pool_k = _read_mk(c, "pool", 1)
    _check_requant_range("pool", 127 * cfg.n_tokens, pool_m, pool_k)

    taps = fm.quant_points(cfg)
    exps = c.array("act_exponents").astype(int)
    if exps.size != len(taps):
        raise ct.FormatError(
            f"act_exponents holds {exps.size} exponents, the config has {len(taps)} taps")
    if np.any((exps < 0) | (exps > qz.MAX_EXPONENT)):
        raise ct.FormatError(f"act_exponents: values outside [0, {qz.MAX_EXPONENT}]")
    head_dequant = _vector(c, "head.dequant", ct.DT_F32, cfg.n_classes).astype(np.float64)
    if not np.all(np.isfinite(head_dequant)):
        raise ct.FormatError("head.dequant: scales are not finite")
    return EngineImage(cfg=cfg, mode=mode, act_exp=dict(zip(taps, exps)), tensors=tensors,
                       pool_m=int(pool_m[0]), pool_k=pool_k, head_dequant=head_dequant,
                       luts=luts)


def _read_lut(c: ct.Container, name: str) -> eng.Lut:
    """A scan LUT whose size, formats and domain fit both integer paths:
    LUT_SIZE entries, the fixed-point formats they hard-code, and a domain
    and interpolation product inside the int32 arithmetic of lut_eval."""
    entries = c.array(f"luts.{name}").astype(np.int16)
    meta = c.array(f"luts.{name}.meta").astype(np.int64).reshape(-1)
    if entries.size != eng.LUT_SIZE or meta.size != 4:
        raise ct.FormatError(f"luts.{name}: {entries.size} entries and {meta.size} meta "
                             f"values, expected {eng.LUT_SIZE} and 4")
    lo, in_frac, out_frac, step_shift = (int(v) for v in meta)
    if (in_frac, out_frac) != eng.LUT_FORMATS[name]:
        raise ct.FormatError(f"luts.{name}: formats (in {in_frac}, out {out_frac}) bits, "
                             f"expected {eng.LUT_FORMATS[name]}")
    if not 0 <= step_shift <= eng.LUT_MAX_STEP_SHIFT:
        raise ct.FormatError(f"luts.{name}: step_shift {step_shift} outside "
                             f"[0, {eng.LUT_MAX_STEP_SHIFT}]")
    hi = lo + ((eng.LUT_SIZE - 1) << step_shift)
    if lo < -INT32_MAX - 1 or hi > INT32_MAX:
        raise ct.FormatError(f"luts.{name}: domain [{lo}, {hi}] leaves int32")
    return eng.Lut(name, entries, lo, in_frac, out_frac, step_shift)


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
