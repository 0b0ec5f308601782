"""Integer-semantics reference forward pass.

A plain, unblocked implementation of the quantized network over a deployment
image: the fake-quantized graph evaluated with exact integer arithmetic
(integers carried in int64 arrays). This is the oracle the optimized engine
must match bit for bit; it deliberately shares no kernel code with it.
"""

from __future__ import annotations

import numpy as np

from . import image as im
from . import model as fm
from . import quantizer as qz

_Q15_LO, _Q15_HI = -(1 << 15), (1 << 15) - 1


def _round_shift(v, k: int):
    # round-half-up: floor(v / 2^k + 1/2); left shift when k is negative
    v = np.asarray(v, dtype=np.int64)
    if k > 0:
        return np.floor_divide(v + (1 << (k - 1)), 1 << k)
    return v * (1 << (-k)) if k < 0 else v


def _to_frac(q, n_from: int, n_to: int):
    return _round_shift(np.asarray(q, dtype=np.int64), n_from - n_to)


def _clip8(v):
    return np.clip(v, -127, 127)


def _dense(t: im.QTensor) -> np.ndarray:
    if t.kind == "t2":
        packed = qz.TernaryPacked(t.words, t.shape[0] * t.shape[1], t.shape,
                                  np.ones(t.shape[0]))
        return qz.unpack_ternary(packed).astype(np.int64)
    return t.q.astype(np.int64)


def _linear(image, name, act_q):
    t = image.tensors[name]
    acc = np.asarray(act_q, dtype=np.int64) @ _dense(t).T + t.bias
    return _clip8(_round_shift(acc * t.m, t.k))


def _interp(lut, x_fixed):
    # same table contract as the engine, independently written: index by
    # division, interpolate with a rounded scaled difference
    step = 1 << lut.step_shift
    rel = np.clip(np.asarray(x_fixed, dtype=np.int64) - lut.lo_fixed,
                  0, (len(lut.entries) - 1) * step)
    i = np.minimum(np.floor_divide(rel, step), len(lut.entries) - 2)
    r = rel - i * step
    base = lut.entries.astype(np.int64)[i]
    nxt = lut.entries.astype(np.int64)[i + 1]
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
    pos_fx = _round_shift(_dense(pos) * pos.m[:, None], pos.k)
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
            kern = _dense(conv)
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
            la = _round_shift(dt_fix[:, :, None] * _dense(a_mat)[None]
                              * a_mat.m[None, :, None], a_mat.k)
            abar = _interp(image.luts["exp"], la)
            bx = np.clip(_round_shift((dt_fix * uq)[:, :, None] * bq[:, None, :],
                                      11 + n[p + "u"] + n[p + "b"] - 15),
                         _Q15_LO, _Q15_HI)
            h = np.zeros((cfg.d_inner, cfg.d_state), dtype=np.int64)
            hs = np.empty((t_len, cfg.d_inner, cfg.d_state), dtype=np.int64)
            for t in range(t_len):
                h = np.clip(_round_shift(abar[t] * h, 15) + bx[t], _Q15_LO, _Q15_HI)
                hs[t] = h
            y_acc = (cq2[:, None, :] * hs).sum(axis=2)
            du = _round_shift(_dense(d_skip) * uq * d_skip.m[0], d_skip.k)
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
    logits_i = pooled @ _dense(head).T + head.bias
    if trace is not None:
        trace["logits_i32"] = logits_i.astype(np.int32)
    return logits_i, logits_i.astype(np.float64) * image.head_dequant


# ---------------------------------------------------------------------------
# float-semantics fake-quant view of a deployment image

def _aligned_weights(image: im.EngineImage):
    """Dequantized weights/biases under the image's aligned (folded) scales."""
    cfg = image.cfg
    n = image.act_exp
    ws, bs = {}, {}
    for layer in qz.layer_catalog(cfg):
        name = layer["name"]
        t = image.tensors[name]
        if name == "head":
            s_head = image.head_dequant * 2.0 ** n["pooled"]
            ws[name] = _dense(t).astype(np.float64) * s_head[:, None]
            bs[name] = t.bias.astype(np.float64) * image.head_dequant
            continue
        n_in = n[layer["in_tap"]]
        n_out = np.concatenate([np.full(rows, n[tap], dtype=np.float64)
                                for tap, rows in layer["out_taps"]])
        r = t.m.astype(np.float64) * 2.0 ** (-t.k)
        s_w = r * 2.0 ** (n_in - n_out)
        ws[name] = _dense(t).astype(np.float64) * s_w[:, None]
        bs[name] = t.bias.astype(np.float64) * (2.0 ** (-n_in) * s_w)
    return ws, bs


class _ImageOps:
    """Op set of a deployment image's float view: weights dequantized under
    its aligned scales, quantize-dequantize at its exponents."""

    def __init__(self, image: im.EngineImage):
        cfg, n = image.cfg, image.act_exp
        self.image, self.cfg, self.n = image, cfg, n
        self.ws, self.bs = _aligned_weights(image)
        pos = image.tensors["pos"]
        s_pos = pos.m.astype(np.float64) * 2.0 ** (-pos.k - n["tok_conv"])
        self.pos = _dense(pos).astype(np.float64) * s_pos[:, None]

    def weight(self, name: str):
        return self.ws[name], self.bs[name]

    def scan(self, i: int, d: str):
        n, p = self.n, f"blocks.{i}.{d}."
        a_mat, d_skip = self.image.tensors[p + "a_mat"], self.image.tensors[p + "d_skip"]
        s_a = a_mat.m.astype(np.float64) * 2.0 ** (-a_mat.k - 1)
        a = _dense(a_mat).astype(np.float64) * s_a[:, None]
        s_d = int(d_skip.m[0]) * 2.0 ** (-d_skip.k) * 2.0 ** (n[p + "u"] - n[p + "c"] - 15)
        # match the LUT path, which clamps exp(delta*a) at 1 for a >= 0
        return np.minimum(a, 0.0), _dense(d_skip)[0].astype(np.float64) * s_d

    def fuse(self, i: int, f: np.ndarray, b: np.ndarray) -> np.ndarray:
        return fm.fuse_branches(f, b, self.cfg)

    def qdq(self, x: np.ndarray, tap: str) -> np.ndarray:
        n = self.n[tap]
        q = np.clip(np.sign(x) * np.floor(np.abs(x) * 2.0 ** n + 0.5), -127, 127)
        return q * 2.0 ** (-n)


def fakequant_float_from_image(image: im.EngineImage, window: np.ndarray) -> np.ndarray:
    """Float-arithmetic fake-quant forward using the image's aligned scales:
    quantize/dequantize at every activation point, dequantized weights, exact
    nonlinearities (the integer path's float-domain counterpart)."""
    return fm.Walk(_ImageOps(image), image.cfg).run(window)
