"""Integer-only inference engine.

Mirrors the deployment kernels: INT8 matrix multiplies with INT32
accumulation, on-the-fly ternary unpacking of the weights, a Q15 fixed-point
selective scan with LUT-based exp/softplus/SiLU, and power-of-two
requantization.

Number formats
  activations   INT8 on a power-of-two grid 2^-n (values in [-127, 127])
  accumulators  INT32 (held in int64 arrays; ranges proven at load)
  scan state    Q15: int16 raw, value = raw / 2^15, saturating
  requantize    out = clamp((acc * m + 2^(k-1)) >> k), m int16 per channel,
                k per tensor; a power-of-two ratio yields m = 2^14 and the
                result equals a plain round-half-up shift
  LUT output    int16 with a declared number of fractional bits

Exact arithmetic on fast kernels
  matmuls       the dot products run as float32 BLAS matmuls over blocks of
                the input dimension, each block's result converted to int64
                and the blocks summed. A block holds b columns with
                b * max|act| * 128 < 2^24: every operand is an integer with
                |w| <= 128, so every partial sum, in whatever order and
                blocking the BLAS adds, is an integer below 2^24 and float32
                holds it exactly. At 127 a block is 1032 columns wide. An i8
                weight is converted to float32 once per loaded image
                (QTensor.f32); t2 weights are unpacked to float32 on every
                call. load_image bounds the final accumulator by INT32_MAX.
  LUTs          a table is read by one gather from Lut.dense, its value at
                every integer input of the domain: (LUT_SIZE-1) * 2^step_shift
                + 1 int32 entries, 65,473 for exp (step_shift 6), 523,777 for
                SiLU (9) and 1,047,553 for softplus (10), and at most ~1 M
                (4 MB) for any image load_image accepts. The build rounds
                e[i] + ((d[i] * r + (2^s >> 1)) >> s) in int32 for each entry i,
                d[i] its difference to the next (|d| < 2^16) and r < 2^s <=
                2^LUT_MAX_STEP_SHIFT. lut_eval forms the index x - lo_fixed
                in int64, so no input wraps, and the gather clips it.
  scan build    the exp table index rhu(dt * a_coef, k) - lo_fixed stays
                int64 (|dt * a_coef| <= 2^15 * 2^7 * 2^15 = 2^37) and takes
                one add and one shift: (dt * a_coef + 2^(k-1) - lo_fixed *
                2^k) >> k, since lo_fixed * 2^k is a multiple of 2^k. The
                gather from the dense table clips the index to the domain,
                so a shift past 39 and a lo_fixed far outside the reach of
                rhu(dt * a_coef, k) are cut to values that give the same
                clipped index; the add then stays below 2^60 for every image
                load_image accepts.
                bx = rhu(dt * u * b, n_u + n_b - 4) runs in int32:
                |dt * u * b| <= 32768 * 127 * 127 < 2^29, so the rounded
                shift is exact up to 31, and a wider shift gives 0 as 31
                does. A negative shift (n_u + n_b < 4) is a left shift by at
                most 4; the product is first clipped to +-2^16, which keeps
                it in int32 and leaves every value that saturates saturated.
  scan          q15_scan_core runs in int32: a step computes
                ((abar * h + 2^14) >> 15) + bx, with |abar * h| <= 2^30.
                y = c . h sums d_state products of at most 127 * 2^15, in
                int32 while that sum stays below 2^31 (d_state < 516).

Parallelism
  A forward runs in the calling thread and walks each block's forward
  branch, then its backward one, straight through, as the reference does;
  callers may run forwards on one image in threads of their own. Each scan
  runs sequentially over time: the saturating Q15 update is not
  associative, so time is never split. A direction builds, scans and reads
  out c . h a chunk of time rows (SCAN_CHUNK values) at a time, carrying
  the state from chunk to chunk, so no (T, d_inner, d_state) buffer exists
  and a chunk's operands stay in cache. The result does not depend on the
  BLAS library's thread count, which the engine leaves to the process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

Q15_ONE = 1 << 15
Q15_MAX = Q15_ONE - 1
Q15_MIN = -Q15_ONE
INT8_MAX = 127
LUT_SIZE = 1024

# fixed-point formats of the scan path
DT_FRAC = 11        # softplus output (step size)
EXP_IN_FRAC = 12    # exp LUT input (step * state coefficient)
SILU_OUT_FRAC = 12  # SiLU LUT output
ACT_FRAC = 15       # int8 activations widened for LUT input

# (input, output) fractional bits of each table, as both integer paths use it
LUT_FORMATS = {"exp": (EXP_IN_FRAC, 15), "silu": (ACT_FRAC, SILU_OUT_FRAC),
               "softplus": (ACT_FRAC, DT_FRAC)}
# the widest step any builder writes (softplus). It bounds every Lut.dense at
# (LUT_SIZE-1) * 2^10 + 1 int32 entries (~1 M) and its build product
# |entry difference| * step below 2^16 * 2^10.
LUT_MAX_STEP_SHIFT = 10


class EngineConfigError(ValueError):
    """Deployment image inconsistent with the engine's integer contracts."""


def _rhu_inplace(v: np.ndarray, k: int):
    """rhu_shift in place, in v's own integer dtype."""
    if k > 0:
        v += 1 << (k - 1)
        v >>= k
    elif k < 0:
        v <<= -k


def rhu_shift(v, k: int):
    """Round-half-up arithmetic shift; negative k is an exact left shift."""
    out = np.array(v, dtype=np.int64)
    _rhu_inplace(out, k)
    return out


def q15_mul(a, b):
    """Q15 product: (a*b + 2^14) >> 15, saturated to [-32768, 32767]."""
    p = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
    r = (p + (1 << 14)) >> 15
    return np.clip(r, Q15_MIN, Q15_MAX)


@dataclass(frozen=True)
class Lut:
    """1024-entry table with linear interpolation on a power-of-two grid.

    Entry i sits at input (lo_fixed + i * 2^step_shift) / 2^in_frac; outputs
    are int16 with out_frac fractional bits. Inputs outside the domain clamp
    to the boundary entries. The engine reads it through `dense`.
    """
    name: str
    entries: np.ndarray  # int16, LUT_SIZE
    lo_fixed: int
    in_frac: int
    out_frac: int
    step_shift: int

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """int32 value at every integer input of the domain, lo_fixed first:
        the 2^step_shift rounded steps from each entry toward the next, then
        the last entry. One gather evaluates the table."""
        s = self.step_shift
        e = self.entries.astype(np.int32)
        out = np.empty(((LUT_SIZE - 1) << s) + 1, dtype=np.int32)
        y = out[:-1].reshape(LUT_SIZE - 1, 1 << s)
        np.multiply(np.diff(e)[:, None], np.arange(1 << s, dtype=np.int32), out=y)
        y += (1 << s) >> 1
        y >>= s
        y += e[:-1, None]
        out[-1] = e[-1]
        return out


def lut_eval(lut: Lut, x_fixed) -> np.ndarray:
    """The table at x_fixed, clamped to the domain: one gather from
    Lut.dense, the index formed in int64. Returns int32 values inside the
    range of the int16 entries."""
    return np.take(lut.dense, np.subtract(x_fixed, lut.lo_fixed, dtype=np.int64), mode="clip")


def _grid(lut_lo_fixed: int, in_frac: int, step_shift: int) -> np.ndarray:
    return (lut_lo_fixed + (np.arange(LUT_SIZE) << step_shift)) / float(1 << in_frac)


def build_exp_lut() -> Lut:
    # domain (-15.984, 0], Q15 output; exp(0) saturates to 1 - 2^-15
    in_frac, step_shift = EXP_IN_FRAC, EXP_IN_FRAC - 6
    lo = -(LUT_SIZE - 1) * (1 << step_shift)
    x = _grid(lo, in_frac, step_shift)
    entries = np.minimum(np.rint(np.exp(x) * Q15_ONE), Q15_MAX).astype(np.int16)
    return Lut("exp", entries, lo, in_frac, 15, step_shift)


def build_silu_lut() -> Lut:
    # domain [-8, 7.984], output fractional bits sized for |silu| < 8
    in_frac, step_shift = ACT_FRAC, ACT_FRAC - 6
    lo = -8 * (1 << in_frac)
    x = _grid(lo, in_frac, step_shift)
    vals = x / (1.0 + np.exp(-x))
    entries = np.clip(np.rint(vals * (1 << SILU_OUT_FRAC)), Q15_MIN, Q15_MAX).astype(np.int16)
    return Lut("silu", entries, lo, in_frac, SILU_OUT_FRAC, step_shift)


def build_softplus_lut(dt_max: float = 10.0) -> Lut:
    # domain [-16, 15.97], output clamped to [0, dt_max] step sizes
    in_frac, step_shift = ACT_FRAC, ACT_FRAC - 5
    lo = -16 * (1 << in_frac)
    x = _grid(lo, in_frac, step_shift)
    vals = np.minimum(np.logaddexp(0.0, x), dt_max)
    entries = np.clip(np.rint(vals * (1 << DT_FRAC)), 0, Q15_MAX).astype(np.int16)
    return Lut("softplus", entries, lo, in_frac, DT_FRAC, step_shift)


def build_all_luts(dt_max: float = 10.0) -> dict[str, Lut]:
    return {"exp": build_exp_lut(), "silu": build_silu_lut(),
            "softplus": build_softplus_lut(dt_max)}


# ---------------------------------------------------------------------------
# integer kernels

SCAN_CHUNK = 100_000  # values per chunk of the fused scan: 4 time rows at full shape
F32_EXACT = 1 << 24  # float32 holds every integer below it exactly


def _rhu_clip(v: np.ndarray, k: int) -> np.ndarray:
    """rhu_shift(v, k) clamped to [-127, 127], in place: v is a fresh int64
    array the caller gives up."""
    _rhu_inplace(v, k)
    return np.clip(v, -INT8_MAX, INT8_MAX, out=v)


def requantize(acc, m, k: int) -> np.ndarray:
    """acc (..., out) * per-channel m, shifted by k, clamped to [-127, 127]."""
    return _rhu_clip(np.asarray(acc, dtype=np.int64) * np.asarray(m, dtype=np.int64), k)


def _requantized_dot(act, w: np.ndarray, bias, m, k: int) -> np.ndarray:
    """clamp(rhu((act @ w.T + bias) * m >> k)), the dot products summed by
    float32 BLAS over blocks of input columns whose partial sums stay below
    2^24. w holds int8 values (|w| <= 128), as int8 or float32.

    The body of both matmul kernels; ternary_matmul does not go through
    int8_matmul, so profiles and MAC counts keep the two kernels apart."""
    act = np.asarray(act)
    d_in = act.shape[1]
    peak = int(np.abs(act).max(initial=0)) * 128
    block = (F32_EXACT - 1) // peak if peak else d_in
    assert block >= 1 and w.dtype in (np.int8, np.float32), "float32 accumulation would round"
    act = act.astype(np.float32)
    w = np.asarray(w, dtype=np.float32)
    acc = (act[:, :block] @ w[:, :block].T).astype(np.int64)
    for i in range(block, d_in, block):
        acc += (act[:, i:i + block] @ w[:, i:i + block].T).astype(np.int64)
    if bias is not None:
        acc += bias
    return requantize(acc, m, k)


def int8_matmul(act, w_q, bias, m, k: int) -> np.ndarray:
    """out[t, o] = clamp(rhu((sum_i act[t,i] * w[o,i] + bias[o]) * m[o] >> k)),
    the sums exact in float32 BLAS; w_q holds int8 values, as int8 or float32."""
    return _requantized_dot(act, w_q, bias, m, k)


_FIELD_SHIFTS = np.arange(0, 32, 2, dtype=np.uint32)


def unpack_rows(words: np.ndarray, shape: tuple[int, int], dtype=np.int8) -> np.ndarray:
    """Shift-and-mask extraction of the 2-bit fields of a (rows, cols)
    tensor, mapped back to {-1, 0, +1} in ``dtype``."""
    d_out, d_in = shape
    fields = ((words[:, None] >> _FIELD_SHIFTS) & np.uint32(3)).astype(dtype).ravel()
    out = fields[:d_out * d_in].reshape(d_out, d_in)
    out -= 1
    return out


def ternary_matmul(act, words, shape, bias, m, k: int) -> np.ndarray:
    """int8_matmul with the weights unpacked from their 2-bit fields, straight
    to float32, per call."""
    return _requantized_dot(act, unpack_rows(words, shape, np.float32), bias, m, k)


def depthwise_conv_int8(x, kernel, bias, m, k: int) -> np.ndarray:
    """Causal per-channel FIR of width d_conv with INT32 accumulation.

    x: (T, C); kernel: (C, K) with the last tap on the current sample;
    the sequence is padded with K-1 leading zeros.
    """
    x = np.asarray(x, dtype=np.int64)
    t_len, n_ch = x.shape
    kw = kernel.shape[1]
    padded = np.concatenate([np.zeros((kw - 1, n_ch), dtype=np.int64), x], axis=0)
    acc = np.zeros((t_len, n_ch), dtype=np.int64)
    for j in range(kw):
        acc += padded[j:j + t_len] * kernel[:, j].astype(np.int64)
    if bias is not None:
        acc = acc + bias
    return requantize(acc, m, k)


@dataclass
class EngineStats:
    scan_sat_events: int = 0
    scan_steps: int = 0

    @property
    def saturation_rate(self) -> float:
        return self.scan_sat_events / self.scan_steps if self.scan_steps else 0.0

    def __iadd__(self, other: "EngineStats") -> "EngineStats":
        self.scan_sat_events += other.scan_sat_events
        self.scan_steps += other.scan_steps
        return self


def q15_scan_core(abar, bx, stats: EngineStats | None = None, h0=None) -> np.ndarray:
    """h_t = sat(q15_mul(abar_t, h_{t-1}) + bx_t), in int32, from the state
    h0 (read only; default 0), so a scan split in time carries its last state
    into the next call.

    abar: (T, C, S) or (C, S); bx: (T, C, S); both hold Q15 values (the
    int16 range). Each step computes ((abar_t * h + 2^14) >> 15) + bx_t, which
    equals q15_mul(abar_t, h) + bx_t before saturation and stays inside int32:
    |abar_t * h| <= 2^30. Returns the int32 state sequence h of shape
    (T, C, S). The steps are element-wise, so the state axes may come in
    either order; the engine passes (T, S, C).

    Inputs already in int32 are the work buffers and are overwritten: bx by
    the sums before saturation, and a (T, C, S) abar by the states, which
    are returned in it (h_t replaces abar_t once read). Other inputs are
    copied to int32 first.
    """
    abar = np.asarray(abar, dtype=np.int32)
    v = np.asarray(bx, dtype=np.int32)
    time_varying = abar.ndim == 3
    hs = abar if time_varying else np.empty_like(v)
    h = np.zeros(v.shape[1:], dtype=np.int32) if h0 is None else np.asarray(h0, np.int32)
    decay = np.empty(v.shape[1:], dtype=np.int32)
    # full-size bounds: numpy's min/max run much slower against a scalar
    lo, hi = np.full_like(h, Q15_MIN), np.full_like(h, Q15_MAX)
    for t in range(v.shape[0]):
        np.multiply(abar[t] if time_varying else abar, h, out=decay)
        decay += 1 << 14
        decay >>= 15
        v[t] += decay
        h = hs[t]
        np.maximum(v[t], lo, out=h)
        np.minimum(h, hi, out=h)
    if stats is not None:
        stats.scan_sat_events += int(np.count_nonzero(v != hs))
        stats.scan_steps += v.size
    return hs


# ---------------------------------------------------------------------------
# full forward over a deployment image

def _quantize_input(x: np.ndarray, n: int) -> np.ndarray:
    q = np.sign(x) * np.floor(np.abs(np.asarray(x, dtype=np.float64)) * 2.0 ** n + 0.5)
    return np.clip(q, -INT8_MAX, INT8_MAX).astype(np.int64)


def _matmul_layer(image, name: str, act) -> np.ndarray:
    t = image.tensors[name]
    if t.kind == "t2":
        return ternary_matmul(act, t.words, t.shape, t.bias, t.m, t.k)
    return int8_matmul(act, t.f32, t.bias, t.m, t.k)


def _values(t) -> np.ndarray:
    """A tensor record's (rows, cols) values as int8."""
    return unpack_rows(t.words, t.shape) if t.kind == "t2" else t.q


def _align_add(q_a, n_a: int, q_b, n_b: int, n_out: int) -> np.ndarray:
    """Requantize both addends onto the finer of the two grids, add exactly,
    then round once to the output grid."""
    n_hi = max(n_a, n_b)
    v = (np.asarray(q_a, dtype=np.int64) << (n_hi - n_a)) + \
        (np.asarray(q_b, dtype=np.int64) << (n_hi - n_b))
    return _rhu_clip(v, n_hi - n_out)


A_PRODUCT_MAX = 1 << 37  # bounds |dt * a_coef|: int16 LUT output * int8 weight * Q15 multiplier


def _exp_index(la: np.ndarray, k: int, lo: int, top: int):
    """la := rhu(la, k) - lo in place, the rounding half and the table offset
    folded into one add; exact wherever the result lies in [0, top], the
    caller clips the rest. As |la| <= 2^37, every shift >= 39 gives 0 as 39
    does, and |rhu(la, k)| <= r: an offset outside [-r - top - 1, r + 1]
    leaves every index on the same side of [0, top] as the offset at that
    end does. So the folded add stays below 2^60."""
    if k > 0:
        k = min(k, 39)
        r = (A_PRODUCT_MAX >> k) + 1
        lo = min(max(lo, -r - top - 1), r + 1)
        la += (1 << (k - 1)) - (lo << k)
        la >>= k
    else:
        la <<= -k
        la -= lo


def _scan_direction(image, p: str, u_q, b_q, c_q, dtpre_q, stats: EngineStats) -> np.ndarray:
    """LUT-driven selective scan of the branch with tap prefix p; returns y
    as INT8 and adds the scan's saturations and steps to stats. Builds, scans
    and reads out a chunk of time rows at a time."""
    exp_n = image.act_exp
    a_mat, d_skip = image.tensors[p + "a_mat"], image.tensors[p + "d_skip"]
    n_u, n_b, n_c = exp_n[p + "u"], exp_n[p + "b"], exp_n[p + "c"]

    dt_fix = lut_eval(image.luts["softplus"],
                      rhu_shift(dtpre_q, exp_n[p + "dt_pre"] - ACT_FRAC))  # (T, C), DT_FRAC
    # (S, C): every chunk array is laid out (rows, S, C), so its element-wise
    # work runs along the d_inner axis instead of in runs of d_state
    a_coef = (_values(a_mat) * a_mat.m[:, None]).T.copy()  # int64
    dt_u = dt_fix * u_q.astype(np.int32)
    b32 = b_q.astype(np.int32)
    bx_shift = min(DT_FRAC + n_u + n_b - 15, 31)  # every shift >= 31 gives 0
    exp = image.luts["exp"]
    c_dtype = np.int32 if c_q.shape[1] * INT8_MAX * Q15_ONE < 2**31 else np.int64
    c_w = c_q.astype(c_dtype)

    t_len = dt_fix.shape[0]
    rows = max(1, SCAN_CHUNK // a_coef.size)
    la = np.empty((rows,) + a_coef.shape, dtype=np.int64)
    abar, bx = np.empty(la.shape, dtype=np.int32), np.empty(la.shape, dtype=np.int32)
    y_acc = np.empty((t_len, a_coef.shape[1]), dtype=c_dtype)
    h = None
    for t0 in range(0, t_len, rows):
        t = slice(t0, t0 + rows)
        n = min(rows, t_len - t0)
        np.multiply(dt_fix[t, None, :], a_coef, out=la[:n])
        _exp_index(la[:n], a_mat.k, exp.lo_fixed, exp.dense.size - 1)
        np.take(exp.dense, la[:n], out=abar[:n], mode="clip")
        xb = bx[:n]
        np.multiply(dt_u[t, None, :], b32[t, :, None], out=xb)
        if bx_shift < 0:
            np.clip(xb, -2 * Q15_ONE, 2 * Q15_ONE, out=xb)
        _rhu_inplace(xb, bx_shift)
        n_sat = np.count_nonzero(xb > Q15_MAX) + np.count_nonzero(xb < Q15_MIN)
        if n_sat:
            stats.scan_sat_events += int(n_sat)
            np.clip(xb, Q15_MIN, Q15_MAX, out=xb)
        hs = q15_scan_core(abar[:n], xb, stats=stats, h0=h)
        h = hs[-1].copy()  # the next chunk's gather overwrites hs
        np.einsum("ts,tsc->tc", c_w[t], hs, out=y_acc[t])

    du = rhu_shift(_values(d_skip) * u_q * d_skip.m[0], d_skip.k)
    return _rhu_clip(y_acc + du, (n_c + 15) - exp_n[p + "y"])


DIRECTIONS = ("fwd", "bwd")


def engine_forward(image, window: np.ndarray, workers: int | None = None,
                   trace: dict | None = None):
    """Full integer pipeline on one window, in the calling thread.

    Walks the graph in reference_int_forward's order: the tokenizer, then
    each block's forward and backward branch straight through (in_proj,
    conv, SiLU, x_proj and dt_proj, scan, gate, out_proj), their fusion and
    residual add, the pool and the head. Returns (logits_i32, logits_float,
    stats), stats summing every scan's saturations and steps. With trace,
    every INT8 activation tensor is recorded as int8 under its
    quantization-point name, plus 'logits_i32' as int32. workers is unused;
    it stays only for callers that pass trace positionally.
    """
    cfg = image.cfg
    stats = EngineStats()
    exp_n = image.act_exp

    def rec(tap, q):
        if trace is not None:
            trace[tap] = q.astype(np.int8)
        return q

    q_in = rec("input", _quantize_input(window, exp_n["input"]))

    # tokenizer: strided patch matmul, then positional add on the conv grid
    p_mat = q_in.reshape(cfg.n_channels, cfg.n_patches, cfg.patch_size)
    p_mat = p_mat.transpose(1, 0, 2).reshape(cfg.n_patches, -1)
    feats = _matmul_layer(image, "tokenizer", p_mat)
    tok_conv = rec("tok_conv", feats.reshape(cfg.n_tokens, cfg.d_model))

    pos = image.tensors["pos"]
    pos_fixed = rhu_shift(_values(pos) * pos.m[:, None], pos.k)
    tokens = rec("tokens", _rhu_clip(tok_conv + pos_fixed, exp_n["tok_conv"] - exp_n["tokens"]))

    block_in_exp = exp_n["tokens"]
    for i in range(cfg.n_blocks):
        branches = {}
        for d, seq in zip(DIRECTIONS, (tokens, tokens[::-1])):
            p = f"blocks.{i}.{d}."
            xz = _matmul_layer(image, p + "in_proj", seq)
            x_q = rec(p + "x", xz[:, :cfg.d_inner])
            gate_q = rec(p + "gate", xz[:, cfg.d_inner:])

            conv = image.tensors[p + "conv"]
            conv_q = rec(p + "conv", depthwise_conv_int8(
                x_q, _values(conv), conv.bias, conv.m, conv.k))

            su = lut_eval(image.luts["silu"], rhu_shift(conv_q, exp_n[p + "conv"] - ACT_FRAC))
            u_q = rec(p + "u", _rhu_clip(su.astype(np.int64), SILU_OUT_FRAC - exp_n[p + "u"]))

            dbl = _matmul_layer(image, p + "x_proj", u_q)
            dr, ds = cfg.dt_rank, cfg.d_state
            dtr_q = rec(p + "dt_raw", dbl[:, :dr])
            b_q = rec(p + "b", dbl[:, dr:dr + ds])
            c_q = rec(p + "c", dbl[:, dr + ds:])
            dtp_q = rec(p + "dt_pre", _matmul_layer(image, p + "dt_proj", dtr_q))

            y_q = rec(p + "y", _scan_direction(image, p, u_q, b_q, c_q, dtp_q, stats))

            sg = lut_eval(image.luts["silu"], rhu_shift(gate_q, exp_n[p + "gate"] - ACT_FRAC))
            gated = rec(p + "gated", _rhu_clip(
                y_q * sg, exp_n[p + "y"] + SILU_OUT_FRAC - exp_n[p + "gated"]))
            out = _matmul_layer(image, p + "out_proj", gated)
            branches[d] = rec(p + "branch", out if d == "fwd" else out[::-1])

        nf = exp_n[f"blocks.{i}.fwd.branch"]
        nb = exp_n[f"blocks.{i}.bwd.branch"]
        n_fused = exp_n[f"blocks.{i}.fused"]
        # the mean halves the sum: one more bit of shift
        fused = rec(f"blocks.{i}.fused", _align_add(
            branches["fwd"], nf, branches["bwd"], nb, n_fused - (cfg.fusion == "mean")))
        tokens = rec(f"blocks.{i}.out", _align_add(
            tokens, block_in_exp, fused, n_fused, exp_n[f"blocks.{i}.out"]))
        block_in_exp = exp_n[f"blocks.{i}.out"]

    pooled = rec("pooled", requantize(tokens.sum(axis=0), image.pool_m, image.pool_k))

    head = image.tensors["head"]
    logits_i = pooled @ _values(head).T + head.bias
    if trace is not None:
        trace["logits_i32"] = logits_i.astype(np.int32)
    logits_f = logits_i.astype(np.float64) * image.head_dequant
    return logits_i, logits_f, stats
