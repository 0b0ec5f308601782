"""Integer-semantics reference forward pass.

A plain, unblocked implementation of the quantized network over a deployment
image: the fake-quantized graph evaluated with exact integer arithmetic.
Integers are carried in int64 arrays, and rounding shifts are arithmetic
right shifts. The matmuls of `_linear` are summed in one float64 product,
which is exact: every term is an integer of at most 127·128, and the INT32
accumulator bound that `image.load_image` checks keeps every partial sum
below 2^32, far inside float64's 2^53 (see `_linear`). This is the oracle the
optimized engine must match bit for bit; it deliberately shares no kernel
code with it, and sums unblocked in float64 where the engine sums float32
blocks. The scan steps one time row at a time and holds one
(d_inner, d_state) state, so no array spans time and state at once.
"""

from __future__ import annotations

import numpy as np

from . import image as im
from . import model as fm

_Q15_LO, _Q15_HI = -(1 << 15), (1 << 15) - 1


def _round_shift(v, k: int):
    # round-half-up: floor(v / 2^k + 1/2); left shift when k is negative
    # an arithmetic right shift of an int64 floors, for every k <= MAX_SHIFT
    v = np.asarray(v, dtype=np.int64)
    if k > 0:
        return (v + (1 << (k - 1))) >> k
    return v * (1 << (-k)) if k < 0 else v


def _to_frac(q, n_from: int, n_to: int):
    return _round_shift(np.asarray(q, dtype=np.int64), n_from - n_to)


def _clip8(v):
    return np.clip(v, -127, 127)


def _linear(image, name, act_q):
    """act_q @ w.T + bias, requantized to INT8. The product is one float64
    GEMM and exact in any summation order: each term is an integer with
    |a·w| <= 127·128, and every partial sum is at most d_in·127·128 in size,
    which `image.load_image`'s INT32 accumulator check (d_in·127² + |bias|
    <= INT32_MAX) keeps below 2^32, far inside float64's 2^53. So the sum does
    not depend on BLAS blocking or thread count, and the int64 cast is the
    exact integer product."""
    t = image.tensors[name]
    prod = np.asarray(act_q, dtype=np.float64) @ t.dense().astype(np.float64).T
    acc = prod.astype(np.int64) + t.bias
    return _clip8(_round_shift(acc * t.m, t.k))


def _interp(lut, x_fixed):
    # same table contract as the engine, independently written: index by
    # shift, interpolate with a rounded scaled difference
    step = 1 << lut.step_shift
    entries = lut.entries.astype(np.int64)
    rel = np.clip(np.asarray(x_fixed, dtype=np.int64) - lut.lo_fixed,
                  0, (len(entries) - 1) * step)
    i = np.minimum(rel >> lut.step_shift, len(entries) - 2)
    r = rel - i * step
    base = entries[i]
    nxt = entries[i + 1]
    return base + _round_shift((nxt - base) * r, lut.step_shift)


def reference_int_forward(image: im.EngineImage, window: np.ndarray,
                          trace: dict | None = None):
    """Bit-exact oracle: returns (logits_int, logits_float)."""
    cfg = image.cfg
    n = image.act_exp

    def rec(tap, q):
        if trace is not None:
            trace[tap] = np.asarray(q).astype(np.int8)
        return q

    x = np.asarray(window, dtype=np.float64) * 2.0 ** n["input"]
    q_in = rec("input", _clip8(np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64))

    patches = q_in.reshape(cfg.n_channels, cfg.n_patches, cfg.patch_size)
    patches = patches.transpose(1, 0, 2).reshape(cfg.n_patches, -1)
    tok_conv = rec("tok_conv",
                   _linear(image, "tokenizer", patches).reshape(cfg.n_tokens, cfg.d_model))

    pos = image.tensors["pos"]
    pos_fx = _round_shift(pos.dense() * pos.m[:, None], pos.k)
    tokens = rec("tokens", _clip8(_to_frac(tok_conv + pos_fx,
                                           n["tok_conv"], n["tokens"])))

    n_block_in = n["tokens"]
    for i in range(cfg.n_blocks):
        outs = {}
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            seq = tokens[::-1] if d == "bwd" else tokens
            xz = _linear(image, p + "in_proj", seq)
            xq = rec(p + "x", xz[:, :cfg.d_inner])
            gq = rec(p + "gate", xz[:, cfg.d_inner:])

            conv = image.tensors[p + "conv"]
            kern = conv.dense()
            t_len = xq.shape[0]
            pad = np.concatenate([np.zeros((cfg.d_conv - 1, cfg.d_inner), np.int64), xq])
            acc = sum(pad[j:j + t_len] * kern[:, j] for j in range(cfg.d_conv)) + conv.bias
            cq = rec(p + "conv", _clip8(_round_shift(acc * conv.m, conv.k)))

            su = _interp(image.luts["silu"], _to_frac(cq, n[p + "conv"], 15))
            uq = rec(p + "u", _clip8(_to_frac(su, 12, n[p + "u"])))

            dbl = _linear(image, p + "x_proj", uq)
            dr, ds = cfg.dt_rank, cfg.d_state
            dtr = rec(p + "dt_raw", dbl[:, :dr])
            bq = rec(p + "b", dbl[:, dr:dr + ds])
            cq2 = rec(p + "c", dbl[:, dr + ds:])
            dtp = rec(p + "dt_pre", _linear(image, p + "dt_proj", dtr))

            a_mat, d_skip = image.tensors[p + "a_mat"], image.tensors[p + "d_skip"]
            dt_fix = _interp(image.luts["softplus"], _to_frac(dtp, n[p + "dt_pre"], 15))
            a_fx = a_mat.dense() * a_mat.m[:, None]
            bx_shift = 11 + n[p + "u"] + n[p + "b"] - 15
            h = np.zeros((cfg.d_inner, cfg.d_state), dtype=np.int64)
            y_acc = np.empty((t_len, cfg.d_inner), dtype=np.int64)
            for t in range(t_len):
                abar = _interp(image.luts["exp"], _round_shift(dt_fix[t, :, None] * a_fx, a_mat.k))
                bx = np.clip(_round_shift((dt_fix[t] * uq[t])[:, None] * bq[t], bx_shift),
                             _Q15_LO, _Q15_HI)
                h = np.clip(_round_shift(abar * h, 15) + bx, _Q15_LO, _Q15_HI)
                y_acc[t] = h @ cq2[t]
            du = _round_shift(d_skip.dense() * uq * d_skip.m[0], d_skip.k)
            yq = rec(p + "y", _clip8(_round_shift(y_acc + du,
                                                  n[p + "c"] + 15 - n[p + "y"])))

            sg = _interp(image.luts["silu"], _to_frac(gq, n[p + "gate"], 15))
            gated = rec(p + "gated",
                        _clip8(_to_frac(yq * sg, n[p + "y"] + 12, n[p + "gated"])))
            o = _linear(image, p + "out_proj", gated)
            outs[d] = rec(p + "branch", o[::-1] if d == "bwd" else o)

        nf, nb = n[f"blocks.{i}.fwd.branch"], n[f"blocks.{i}.bwd.branch"]
        hi = max(nf, nb)
        merged = outs["fwd"] * (1 << (hi - nf)) + outs["bwd"] * (1 << (hi - nb))
        extra = 1 if cfg.fusion == "mean" else 0
        fused = rec(f"blocks.{i}.fused",
                    _clip8(_round_shift(merged, hi - n[f"blocks.{i}.fused"] + extra)))
        hi2 = max(n_block_in, n[f"blocks.{i}.fused"])
        res = tokens * (1 << (hi2 - n_block_in)) + fused * (1 << (hi2 - n[f"blocks.{i}.fused"]))
        tokens = rec(f"blocks.{i}.out",
                     _clip8(_round_shift(res, hi2 - n[f"blocks.{i}.out"])))
        n_block_in = n[f"blocks.{i}.out"]

    pooled = rec("pooled", _clip8(_round_shift(tokens.sum(axis=0) * image.pool_m,
                                               image.pool_k)))
    head = image.tensors["head"]
    logits_i = pooled @ head.dense().T + head.bias
    if trace is not None:
        trace["logits_i32"] = logits_i.astype(np.int32)
    return logits_i, logits_i.astype(np.float64) * image.head_dequant


# ---------------------------------------------------------------------------
# float-semantics fake-quant view of a deployment image

def fakequant_float_from_image(image: im.EngineImage, window: np.ndarray) -> np.ndarray:
    """Float-arithmetic fake-quant forward of a deployment image: its float
    view (`EngineImage.float_view`) with quantize/dequantize at every activation
    point and exact nonlinearities (the integer path's float-domain
    counterpart)."""
    return fm.Walk(image.float_view, image.cfg, image.act_exp).run(window)
