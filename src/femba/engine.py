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
  matmuls       the dot products run as float64 BLAS matmuls. Every operand
                is an integer with |act| <= 127 and |w| <= 128, so every
                partial sum, in whatever order and blocking the BLAS adds,
                is an integer of magnitude at most d_in * 127 * 128 < 2^53
                and float64 holds it exactly. load_image bounds the final
                accumulator by INT32_MAX, far below that.
  LUTs          lut_eval interpolates in int32: the position is clipped to
                (LUT_SIZE-1) << step_shift < 2^31 and the rounded product of
                an entry difference (|d| < 2^16) and the fraction
                (< 2^step_shift <= 2^15) stays below 2^31. load_image checks
                both bounds.
  scan          q15_scan_core runs in int32: a step sums abar * h, bx * 2^15
                and 2^14 before its shift by 15, at most
                2^30 + 32767 * 2^15 + 2^14 < 2^31 in magnitude.

Parallelism
  The scan is channel-parallel: its d_inner channels are cut into blocks of
  SCAN_BLOCK, small enough for the (T, block, d_state) temporaries to stay
  in cache, and a pool of `workers` threads runs the blocks (numpy releases
  the interpreter lock inside the block work). Each block runs sequentially
  over time; the saturating Q15 update is not associative, so time is never
  split. Integer results do not depend on the partition, so every worker
  count gives bit-identical output. The matmuls take their threads from the
  BLAS.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
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
LUT_MAX_STEP_SHIFT = 15  # |entry difference| * fraction + 2^14 < 2^16 * 2^15


class EngineConfigError(ValueError):
    """Deployment image inconsistent with the engine's integer contracts."""


def worker_count(explicit: int | None = None) -> int:
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("FEMBA_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def rhu_shift(v, k: int):
    """Round-half-up arithmetic shift; negative k is an exact left shift."""
    v = np.asarray(v, dtype=np.int64)
    if k == 0:
        return v.copy()
    if k < 0:
        return v << np.int64(-k)
    out = v + (np.int64(1) << np.int64(k - 1))
    out >>= np.int64(k)
    return out


def widen(q, from_frac: int, to_frac: int):
    """Move int values between fixed-point grids; widening is exact."""
    if to_frac >= from_frac:
        return np.asarray(q, dtype=np.int64) << np.int64(to_frac - from_frac)
    return rhu_shift(q, from_frac - to_frac)


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
    to the boundary entries.
    """
    name: str
    entries: np.ndarray  # int16, LUT_SIZE
    lo_fixed: int
    in_frac: int
    out_frac: int
    step_shift: int

    @property
    def domain_lo(self) -> float:
        return self.lo_fixed / (1 << self.in_frac)

    @property
    def domain_hi(self) -> float:
        return (self.lo_fixed + (LUT_SIZE - 1) * (1 << self.step_shift)) / (1 << self.in_frac)

    @functools.cached_property
    def segments(self) -> np.ndarray:
        """(LUT_SIZE, 2) int32: each entry and its difference to the next.
        The last entry repeats past the end, so the top of the domain has
        difference 0 and needs no index clamp."""
        e = self.entries.astype(np.int32)
        return np.stack([e, np.diff(e, append=e[-1])], axis=1)


def lut_eval(lut: Lut, x_fixed) -> np.ndarray:
    """Rounded linear interpolation between adjacent entries, in int32.

    Returns int32 values inside the range of the int16 entries. The domain
    [lo_fixed, lo_fixed + (LUT_SIZE-1) << step_shift] must lie inside int32
    (load_image checks it).
    """
    s, lo = lut.step_shift, lut.lo_fixed
    pos = np.empty(np.shape(x_fixed), dtype=np.int32)
    np.clip(x_fixed, lo, lo + ((LUT_SIZE - 1) << s), out=pos, casting="unsafe")
    pos -= lo
    seg = lut.segments.take(np.right_shift(pos, s, dtype=np.intp), axis=0)
    pos &= (1 << s) - 1  # the fraction
    y = seg[..., 1] * pos
    y += (1 << s) >> 1
    y >>= s
    y += seg[..., 0]
    return y


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

SCAN_BLOCK = 128  # scan channels per block: (T, block, d_state) int64 is 2.6 MB at T = 160


def requantize(acc, m, k: int, clamp: int = INT8_MAX) -> np.ndarray:
    """acc (..., out) * per-channel m, shifted by k, clamped symmetric."""
    scaled = np.asarray(acc, dtype=np.int64) * np.asarray(m, dtype=np.int64)
    return np.clip(rhu_shift(scaled, k), -clamp, clamp)


def _requantized_dot(act, w: np.ndarray, bias, m, k: int) -> np.ndarray:
    """clamp(rhu((act @ w.T + bias) * m >> k)), the dot products accumulated
    by float64 BLAS. Exact while no partial sum can reach 2^53.

    The body of both matmul kernels; ternary_matmul does not go through
    int8_matmul, so profiles and MAC counts keep the two kernels apart."""
    act = np.asarray(act, dtype=np.float64)
    assert w.dtype == np.int8 and \
        int(np.abs(act).max(initial=0)) * 128 * act.shape[1] < 2**53, \
        "float64 accumulation would round"
    acc = (act @ w.astype(np.float64).T).astype(np.int64)
    if bias is not None:
        acc += bias
    return requantize(acc, m, k)


def int8_matmul(act, w_q, bias, m, k: int) -> np.ndarray:
    """out[t, o] = clamp(rhu((sum_i act[t,i] * w[o,i] + bias[o]) * m[o] >> k)),
    the sums exact in float64 BLAS."""
    return _requantized_dot(act, w_q, bias, m, k)


_FIELD_SHIFTS = np.arange(0, 32, 2, dtype=np.uint32)


def unpack_rows(words: np.ndarray, d_in: int, rows: np.ndarray) -> np.ndarray:
    """Shift-and-mask extraction of 2-bit fields for the given weight rows,
    mapped back to {-1, 0, +1} as int8."""
    fields = ((words[:, None] >> _FIELD_SHIFTS) & np.uint32(3)).astype(np.int8).ravel()
    n_rows = fields.size // d_in
    out = fields[:n_rows * d_in].reshape(n_rows, d_in)[rows]
    out -= 1
    return out


def ternary_matmul(act, words, shape, bias, m, k: int) -> np.ndarray:
    """int8_matmul with the weights unpacked from their 2-bit fields per call."""
    d_out, d_in = shape
    return _requantized_dot(act, unpack_rows(words, d_in, np.arange(d_out)), bias, m, k)


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


def q15_scan_core(abar, bx, stats: EngineStats | None = None) -> np.ndarray:
    """h_t = sat(q15_mul(abar_t, h_{t-1}) + bx_t), h_0 = 0, in int32.

    abar: (T, C, S) or (C, S); bx: (T, C, S); both hold Q15 values (the
    int16 range). Each step computes (abar_t * h + bx_t * 2^15 + 2^14) >> 15,
    which equals q15_mul(abar_t, h) + bx_t and stays inside int32:
    2^30 + 32767 * 2^15 + 2^14 < 2^31. Returns the int32 state sequence h of
    shape (T, C, S).
    """
    v = np.array(bx, dtype=np.int32)  # becomes the pre-saturation sums
    v <<= 15
    v += 1 << 14
    abar = np.asarray(abar, dtype=np.int32)
    time_varying = abar.ndim == 3
    hs = np.empty_like(v)
    h = np.zeros(v.shape[1:], dtype=np.int32)
    decay = np.empty_like(h)
    # full-size bounds: numpy's min/max run much slower against a scalar
    lo, hi = np.full_like(h, Q15_MIN), np.full_like(h, Q15_MAX)
    for t in range(v.shape[0]):
        np.multiply(abar[t] if time_varying else abar, h, out=decay)
        v[t] += decay
        v[t] >>= 15
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
    lay = image.layers[name]
    if lay.kind == "t2":
        return ternary_matmul(act, lay.words, lay.shape, lay.bias, lay.m, lay.k)
    return int8_matmul(act, lay.q, lay.bias, lay.m, lay.k)


def _align_add(q_a, n_a: int, q_b, n_b: int, n_out: int) -> np.ndarray:
    """Requantize both addends onto the finer of the two grids, add exactly,
    then round once to the output grid."""
    n_hi = max(n_a, n_b)
    v = (np.asarray(q_a, dtype=np.int64) << (n_hi - n_a)) + \
        (np.asarray(q_b, dtype=np.int64) << (n_hi - n_b))
    return np.clip(rhu_shift(v, n_hi - n_out), -INT8_MAX, INT8_MAX)


def _scan_direction(image, i: int, d: str, u_q, b_q, c_q, dtpre_q,
                    workers: int, stats: EngineStats) -> np.ndarray:
    """LUT-driven selective scan of one branch; returns y as INT8."""
    cfg = image.cfg
    exp_n = image.act_exp
    p = f"blocks.{i}.{d}."
    sp = image.scan[(i, d)]
    n_u, n_b, n_c = exp_n[p + "u"], exp_n[p + "b"], exp_n[p + "c"]

    dt_fix = lut_eval(image.luts["softplus"],
                      widen(dtpre_q, exp_n[p + "dt_pre"], ACT_FRAC))  # (T, C), DT_FRAC
    if sp.a_kind == "t2":
        a_q = unpack_rows(sp.a_words, cfg.d_state, np.arange(cfg.d_inner))
    else:
        a_q = sp.a_q
    a_coef = a_q * sp.a_m[:, None]  # (C, S)
    dt_u = dt_fix * u_q
    c_q = c_q.astype(np.int64)
    bx_shift = DT_FRAC + n_u + n_b - 15

    def scan_block(ch: slice):
        """y accumulator (T, block) and stats of one channel block."""
        block_stats = EngineStats()
        la = rhu_shift(dt_fix[:, ch, None] * a_coef[ch], sp.a_k)
        abar = lut_eval(image.luts["exp"], la)  # (T, block, S) Q15
        bx_raw = rhu_shift(dt_u[:, ch, None] * b_q[:, None, :], bx_shift)
        bx = np.empty(bx_raw.shape, dtype=np.int32)
        np.clip(bx_raw, Q15_MIN, Q15_MAX, out=bx, casting="unsafe")
        block_stats.scan_sat_events += int(np.count_nonzero(bx != bx_raw))
        h = q15_scan_core(abar, bx, stats=block_stats)
        return np.einsum("ts,tcs->tc", c_q, h), block_stats

    blocks = [slice(c, c + SCAN_BLOCK) for c in range(0, cfg.d_inner, SCAN_BLOCK)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(scan_block, blocks))
    y_acc = np.empty(dt_u.shape, dtype=np.int64)
    for ch, (y_block, block_stats) in zip(blocks, results):
        y_acc[:, ch] = y_block
        stats.scan_sat_events += block_stats.scan_sat_events
        stats.scan_steps += block_stats.scan_steps

    if sp.d_kind == "t2":
        d_q = unpack_rows(sp.d_words, cfg.d_inner, np.arange(1))[0]
    else:
        d_q = sp.d_q
    du = rhu_shift(d_q[None, :] * u_q * np.int64(sp.d_m), sp.d_k)
    return np.clip(rhu_shift(y_acc + du, (n_c + 15) - exp_n[p + "y"]),
                   -INT8_MAX, INT8_MAX)


def engine_forward(image, window: np.ndarray, workers: int | None = None,
                   trace: dict | None = None):
    """Full integer pipeline on one window.

    workers is the number of threads over scan channel blocks (default:
    FEMBA_THREADS, else the CPU count). Returns (logits_i32, logits_float,
    stats). With trace, every INT8 activation tensor is recorded as int8
    under its quantization-point name, plus 'logits_i32'.
    """
    cfg = image.cfg
    nw = worker_count(workers)
    stats = EngineStats()
    exp_n = image.act_exp

    def rec(tap, q):
        if trace is not None:
            trace[tap] = np.asarray(q, dtype=np.int8 if q.dtype != np.int32 else np.int32)
        return q

    q_in = rec("input", _quantize_input(window, exp_n["input"]))

    # tokenizer: strided patch matmul, then positional add on the conv grid
    p_mat = q_in.reshape(cfg.n_channels, cfg.n_patches, cfg.patch_size)
    p_mat = p_mat.transpose(1, 0, 2).reshape(cfg.n_patches, -1)
    feats = _matmul_layer(image, "tokenizer", p_mat)
    tok_conv = rec("tok_conv", feats.reshape(cfg.n_tokens, cfg.d_model))

    if image.pos_kind == "t2":
        pos_q = unpack_rows(image.pos_words, cfg.d_model, np.arange(cfg.n_tokens))
    else:
        pos_q = image.pos_q.astype(np.int64)
    pos_fixed = rhu_shift(pos_q * image.pos_m[:, None], image.pos_k)
    tokens = rec("tokens", np.clip(
        rhu_shift(tok_conv + pos_fixed, exp_n["tok_conv"] - exp_n["tokens"]),
        -INT8_MAX, INT8_MAX))

    block_in_exp = exp_n["tokens"]
    for i in range(cfg.n_blocks):
        branches = {}
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            seq = tokens if d == "fwd" else tokens[::-1]
            xz = _matmul_layer(image, p + "in_proj", seq)
            x_q = rec(p + "x", xz[:, :cfg.d_inner])
            gate_q = rec(p + "gate", xz[:, cfg.d_inner:])

            conv_lay = image.layers[p + "conv"]
            if conv_lay.kind == "t2":
                kernel = unpack_rows(conv_lay.words, cfg.d_conv, np.arange(cfg.d_inner))
            else:
                kernel = conv_lay.q
            conv_q = rec(p + "conv", depthwise_conv_int8(
                x_q, kernel, conv_lay.bias, conv_lay.m, conv_lay.k))

            su = lut_eval(image.luts["silu"], widen(conv_q, exp_n[p + "conv"], ACT_FRAC))
            u_q = rec(p + "u", np.clip(
                rhu_shift(su, SILU_OUT_FRAC - exp_n[p + "u"]), -INT8_MAX, INT8_MAX))

            dbl = _matmul_layer(image, p + "x_proj", u_q)
            dr, ds = cfg.dt_rank, cfg.d_state
            dtr_q = rec(p + "dt_raw", dbl[:, :dr])
            b_q = rec(p + "b", dbl[:, dr:dr + ds])
            c_q = rec(p + "c", dbl[:, dr + ds:])
            dtp_q = rec(p + "dt_pre", _matmul_layer(image, p + "dt_proj", dtr_q))

            y_q = rec(p + "y", _scan_direction(image, i, d, u_q, b_q, c_q, dtp_q,
                                               nw, stats))

            sg = lut_eval(image.luts["silu"],
                          widen(gate_q, exp_n[p + "gate"], ACT_FRAC))
            gated = rec(p + "gated", np.clip(
                rhu_shift(y_q * sg, exp_n[p + "y"] + SILU_OUT_FRAC - exp_n[p + "gated"]),
                -INT8_MAX, INT8_MAX))

            out = _matmul_layer(image, p + "out_proj", gated)
            branches[d] = rec(p + "branch", out if d == "fwd" else out[::-1])

        nf = exp_n[f"blocks.{i}.fwd.branch"]
        nb = exp_n[f"blocks.{i}.bwd.branch"]
        n_fused = exp_n[f"blocks.{i}.fused"]
        if cfg.fusion == "mean":
            n_hi = max(nf, nb)
            v = (branches["fwd"] << (n_hi - nf)) + (branches["bwd"] << (n_hi - nb))
            fused = np.clip(rhu_shift(v, n_hi - n_fused + 1), -INT8_MAX, INT8_MAX)
        else:
            fused = _align_add(branches["fwd"], nf, branches["bwd"], nb, n_fused)
        rec(f"blocks.{i}.fused", fused)
        tokens = rec(f"blocks.{i}.out", _align_add(
            tokens, block_in_exp, fused, n_fused, exp_n[f"blocks.{i}.out"]))
        block_in_exp = exp_n[f"blocks.{i}.out"]

    pool_acc = tokens.sum(axis=0)
    pooled = rec("pooled", np.clip(
        rhu_shift(pool_acc * np.int64(image.pool_m), image.pool_k), -INT8_MAX, INT8_MAX))

    if image.head_kind == "t2":
        head_w = unpack_rows(image.head_words, cfg.d_model, np.arange(cfg.n_classes))
    else:
        head_w = image.head_q.astype(np.int64)
    logits_i = pooled @ head_w.T + image.head_bias
    if trace is not None:
        trace["logits_i32"] = logits_i.astype(np.int32)
    logits_f = logits_i.astype(np.float64) * image.head_dequant
    return logits_i.astype(np.int64), logits_f, stats
