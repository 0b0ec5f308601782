"""Model containers: float checkpoints and quantized deployment images.

The deployment image carries everything the integer paths need: power-of-two
activation exponents, the scan lookup tables, the pooling requantizer, the
head's dequantization scales, and one record per quantized tensor
(`QTensor`): its INT8 or ternary-packed values and, where the tensor has
them, an int16 requantization multiplier per row with a per-tensor shift k
and an INT32 bias per row in accumulator domain. All scale folding happens
here, once, so the engine and the integer-semantics reference consume
identical numbers.

Both loaders read every entry through one reader, `_entry`, which checks its
dims and dtype against what `build_image` and `save_checkpoint` write.
`load_image` checks every bound the integer paths rely on before either runs:
the config against the entries' dims, each accumulator against INT32, each
requantizer against int64 with |k| <= MAX_SHIFT, and each activation
exponent against [0, quantizer.MAX_EXPONENT] = [0, 24]. Within that range
the shifts between activation grids stay in [-24, 44] bits (negative is a
left shift): the widest right shift is the scan input's n_u + n_b - 4, and
no left shift of an exponent difference exceeds 24 bits.
"""

from __future__ import annotations

import functools
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
    """Each bias rounded onto its accumulator grid, clipped to INT32 in
    float64 first so that no value wraps in the cast."""
    v = np.clip(np.asarray(bias, dtype=np.float64) / acc_lsb, -INT32_MAX, INT32_MAX)
    return qz.round_half_away(v)


# ---------------------------------------------------------------------------
# float checkpoints

_FUSION_IDX = {name: i for i, name in enumerate(fm.FUSION_MODES)}
_MODE_IDX = {name: i for i, name in enumerate(qz.MODES)}
_CONFIG_DIMS = ("d_model", "d_inner", "d_state", "d_conv", "n_blocks", "n_tokens",
                "n_channels", "n_samples", "patch_size", "n_classes", "dt_rank")


def _config_vec(cfg: fm.ModelConfig, mode: str) -> np.ndarray:
    return np.array([getattr(cfg, name) for name in _CONFIG_DIMS] +
                    [_FUSION_IDX[cfg.fusion], _MODE_IDX[mode]], dtype=np.int32)


def _entry(c: ct.Container, name: str, dims: tuple, *dtypes: int) -> ct.Entry:
    """Entry ``name``; FormatError naming it unless it has logical ``dims``
    and one of the container ``dtypes``, as its writer stores it."""
    e = c.get(name)
    if e.dims != tuple(dims) or e.dtype not in dtypes:
        want = " or ".join(ct.DTYPES[d].name for d in dtypes)
        raise ct.FormatError(f"entry {name!r}: {ct.DTYPES[e.dtype].name} of dims {e.dims}, "
                             f"expected {want} of dims {tuple(dims)}")
    return e


def read_config(c: ct.Container) -> tuple[fm.ModelConfig, str]:
    """The config and mode of a checkpoint or image; FormatError unless
    ``config`` holds the i32 dims and indices and ``config_f`` the f32 step
    range, every dim is positive, both indices name a fusion and a mode, and
    0 < dt_min <= dt_max < inf (the scan's step range)."""
    vec = _entry(c, "config", (len(_CONFIG_DIMS) + 2,), ct.DT_I32).data
    fvec = _entry(c, "config_f", (2,), ct.DT_F32).data.astype(np.float64)
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
    return cfg, list(qz.MODES)[mode]


def save_checkpoint(weights: dict[str, np.ndarray], cfg: fm.ModelConfig, path):
    """Write a float checkpoint: the config, then every parameter of
    `model.param_shapes` as f32 under its own name."""
    c = ct.Container()
    c.add("config", ct.DT_I32, _config_vec(cfg, "fp32"))
    c.add("config_f", ct.DT_F32, np.array([cfg.dt_min, cfg.dt_max], dtype=np.float32))
    for name, _ in fm.param_shapes(cfg):
        c.add(name, ct.DT_F32, weights[name].astype(np.float32))
    c.save(path)


def load_checkpoint(source) -> tuple[dict[str, np.ndarray], fm.ModelConfig]:
    """The weights and config of a float checkpoint, given as a path or a
    loaded container; FormatError unless every parameter of
    `model.param_shapes` is an f32 entry of its listed dims holding finite
    values."""
    c = source if isinstance(source, ct.Container) else ct.Container.load(source)
    cfg, _ = read_config(c)
    weights = {}
    for name, shape in fm.param_shapes(cfg):
        a = weights[name] = _entry(c, name, shape, ct.DT_F32).data.reshape(shape).astype(float)
        if not np.all(np.isfinite(a)):
            raise ct.FormatError(f"entry {name!r}: values are not finite")
    return weights, cfg


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

    def dense(self) -> np.ndarray:
        """The values as an int64 array of ``shape``."""
        if self.kind == "t2":
            return qz.unpack_ternary(self.words, self.shape).astype(np.int64)
        return self.q.astype(np.int64)

    @functools.cached_property
    def f32(self) -> np.ndarray:
        """The i8 values as float32, converted once for the engine's matmuls."""
        return self.q.astype(np.float32)


@dataclass
class EngineImage:
    """A loaded deployment image. ``tensors`` maps every tensor of
    ``quantizer.tensor_shapes`` to its record."""
    cfg: fm.ModelConfig
    mode: str
    act_exp: dict[str, int]
    tensors: dict[str, QTensor]
    pool_m: int
    pool_k: int
    head_dequant: np.ndarray
    luts: dict[str, eng.Lut]

    @functools.cached_property
    def float_view(self) -> dict[str, tuple]:
        """Each tensor unfolded on its grids (see `requant_grids`) as
        q·m·2^−k·2^(n_in−n_out), the head as q·head_dequant·2^n_in, and each
        bias as its INT32 value on the accumulator grid. ``a_mat`` is clamped
        at 0, as the integer paths' exp LUT clamps exp(delta*a) at 1. Built
        on first use and kept, so walks over many windows share it (from
        Python 3.12, first uses that overlap in time may each build it)."""
        table = {}
        for name, (n_in, n_out) in requant_grids(self.cfg, self.act_exp).items():
            t = self.tensors[name]
            ratio = self.head_dequant if name == "head" else t.m * 2.0 ** (-t.k)
            scales = ratio * 2.0 ** (n_in - n_out)
            w = t.dense() * scales[:, None]
            b = None if t.bias is None else t.bias * (2.0 ** (-n_in) * scales)
            table[name] = (np.minimum(w, 0.0) if name.endswith(".a_mat") else w, b)
        return table


# the container dtype that stores a weight of each bit width
# (`quantizer.MODES`); 4-bit weights take a byte each
WEIGHT_DTYPE = {32: ct.DT_F32, 8: ct.DT_I8, 4: ct.DT_I8, 2: ct.DT_T2}


def _add_weight(c: ct.Container, name: str, qt: qz.QuantizedTensor):
    dtype = WEIGHT_DTYPE[qt.bits]
    data = qz.pack_ternary(qt.q) if dtype == ct.DT_T2 else qt.q
    c.add(name + ".q", dtype, data, dims=qt.q.shape)


def _add_mk(c: ct.Container, name: str, m: np.ndarray, k: int):
    c.add(name + ".m", ct.DT_Q15, m.astype(np.int16))
    c.add(name + ".k", ct.DT_I8, np.array([k], dtype=np.int8))


def requant_grids(cfg: fm.ModelConfig, exp: dict[str, int]) -> dict[str, tuple]:
    """``name -> (n_in, n_out)`` for every deployed tensor, in image entry
    order: the layers of `quantizer.layer_catalog`, then ``pos``, then each
    branch's ``a_mat`` and ``d_skip``. The tensor times values on the grid
    2^-n_in is requantized onto the grid 2^-n_out: its ratio is
    scales·2^(n_out−n_in), and its bias lies on the accumulator grid
    2^−n_in·scales. A layer reads its in tap and writes its out taps (n_out
    per row); the head has no requantizer, and its n_out of 0 makes the
    ratio its dequantization scale. ``pos`` is added on the tokenizer output
    grid, ``a_mat`` takes a step size to the exp LUT input, and ``d_skip``
    adds to the scan output, c times the Q15 state."""
    grids = {}
    for layer in qz.layer_catalog(cfg):
        rows = [np.full(count, exp[tap], dtype=np.int64) for tap, count in layer["out_taps"]]
        grids[layer["name"]] = (exp[layer["in_tap"]], np.concatenate(rows) if rows else 0)
    grids["pos"] = (0, exp["tok_conv"])
    for i in range(cfg.n_blocks):
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            grids[p + "a_mat"] = (eng.DT_FRAC, eng.EXP_IN_FRAC)
            grids[p + "d_skip"] = (exp[p + "u"], exp[p + "c"] + 15)
    return grids


def build_image(cfg: fm.ModelConfig, art: qz.QuantArtifacts) -> ct.Container:
    """Fold quantization artifacts into the self-contained deployment image:
    each tensor's ratio (see `requant_grids`) into an int16 multiplier m per
    row and a shift k, the head's into ``head.dequant``, and each bias into
    INT32 on its accumulator grid."""
    if art.mode == "fp32" or not art.act:
        raise qz.CalibrationError("deployment image requires calibrated artifacts")
    exp = {t: art.exponent(t) for t in fm.quant_points(cfg)}
    c = ct.Container()
    c.add("config", ct.DT_I32, _config_vec(cfg, art.mode))
    c.add("config_f", ct.DT_F32, np.array([cfg.dt_min, cfg.dt_max], dtype=np.float32))
    c.add("act_exponents", ct.DT_I8, np.array(list(exp.values()), dtype=np.int8))

    for name, (n_in, n_out) in requant_grids(cfg, exp).items():
        qt = art.weights_q[name]
        _add_weight(c, name, qt)
        ratios = qt.scales * np.exp2(n_out - n_in)
        if name == "head":
            c.add("head.dequant", ct.DT_F32, ratios.astype(np.float32))
        else:
            _add_mk(c, name, *fold_mk(ratios))
        if name in art.biases:
            c.add(name + ".bias", ct.DT_I32, _bias_to_int32(
                art.biases[name], 2.0 ** (-n_in) * qt.scales).astype(np.int32))

    last_out = exp[f"blocks.{cfg.n_blocks - 1}.out"]
    m, k = fold_mk(np.array([2.0 ** (exp["pooled"] - last_out) / cfg.n_tokens]))
    _add_mk(c, "pool", m, k)

    for lut in eng.build_all_luts(cfg.dt_max).values():
        c.add(f"luts.{lut.name}", ct.DT_Q15, lut.entries)
        c.add(f"luts.{lut.name}.meta", ct.DT_I32, np.array(
            [lut.lo_fixed, lut.in_frac, lut.out_frac, lut.step_shift], dtype=np.int32))
    return c


def _read_tensor(c: ct.Container, name: str, shape: tuple[int, int]) -> QTensor:
    e = _entry(c, name + ".q", shape, ct.DT_I8, ct.DT_T2)
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
    return (_entry(c, name + ".m", (rows,), ct.DT_Q15).data.astype(np.int64),
            int(_entry(c, name + ".k", (1,), ct.DT_I8).data[0]))


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
    """Parse and validate a deployment image container, reading every entry
    through `_entry`, which checks its dims and dtype.

    Raises FormatError when the config, an entry's dims or dtype, an
    activation exponent or a lookup table does not fit the integer paths,
    and EngineConfigError when a layer could overflow its INT32 accumulator,
    any requantizer could leave int64 range, or the container is not an
    integer-mode image.
    """
    c = source if isinstance(source, ct.Container) else ct.Container.load(source)
    cfg, mode = read_config(c)
    if mode == "fp32":
        raise eng.EngineConfigError("container is a float checkpoint, not a deployment image")
    luts = {name: _read_lut(c, name) for name in eng.LUT_FORMATS}

    # inputs of the requantizers without a bias; a scan step is at most the
    # largest entry of the softplus table
    dt_peak = int(np.abs(luts["softplus"].entries.astype(np.int64)).max())
    input_bound = {"pos": 127, "a_mat": dt_peak * 127, "d_skip": 127 * 127}
    tensors = {}
    # every dim is checked against the entries here, before quant_points
    # walks (and allocates) the config's graph
    for name, shape in qz.tensor_shapes(cfg):
        t = tensors[name] = _read_tensor(c, name, shape)
        bound = input_bound.get(name.rsplit(".", 1)[-1])
        if bound is None:
            t.bias = _entry(c, name + ".bias", (shape[0],), ct.DT_I32).data.astype(np.int64)
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
    exps = _entry(c, "act_exponents", (len(taps),), ct.DT_I8).data
    if np.any((exps < 0) | (exps > qz.MAX_EXPONENT)):
        raise ct.FormatError(f"act_exponents: values outside [0, {qz.MAX_EXPONENT}]")
    head_dequant = _entry(c, "head.dequant", (cfg.n_classes,), ct.DT_F32).data.astype(float)
    if not np.all(np.isfinite(head_dequant)):
        raise ct.FormatError("head.dequant: scales are not finite")
    return EngineImage(cfg=cfg, mode=mode, act_exp=dict(zip(taps, exps.tolist())),
                       tensors=tensors, pool_m=int(pool_m[0]), pool_k=pool_k,
                       head_dequant=head_dequant, luts=luts)


def _read_lut(c: ct.Container, name: str) -> eng.Lut:
    """A scan LUT whose entries and formats fit both integer paths: LUT_SIZE
    q15 entries, four i32 meta values, the fixed-point formats the paths
    hard-code, a domain inside int32, and a step that bounds the engine's
    dense table at ~1 M int32 entries and its build product inside int32."""
    entries = _entry(c, f"luts.{name}", (eng.LUT_SIZE,), ct.DT_Q15).data.astype(np.int16)
    meta = _entry(c, f"luts.{name}.meta", (4,), ct.DT_I32).data
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
    for name, e in c.entries.items():
        dt = ct.DTYPES[e.dtype]
        nbytes = ct.payload_size(e.dtype, e.dims)
        total += nbytes
        lines.append(f"{name:<34} {dt.name:>6} {dt.bits:>4} "
                     f"{math.prod(e.dims):>10} {nbytes:>10}")
    lines.append(f"{'TOTAL payload':<34} {'':>6} {'':>4} {'':>10} {total:>10}")
    return "\n".join(lines)
