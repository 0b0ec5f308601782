"""Float reference implementation of the Tiny bidirectional-Mamba EEG encoder.

Pipeline: 2D convolutional tokenizer + positional embedding, two bidirectional
Mamba blocks (each an additive fusion of a forward and a backward selective-
scan branch around a residual connection), mean pooling over tokens, and a
linear classification head.

This float path is the ground truth the quantized and integer paths are
checked against. Everything runs in float64 and is deterministic. The graph
is written out once, in `Walk`; the fake-quantized forward and a deployment
image's float view walk it with their own tensor tables and tap exponents.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

FUSION_MODES = ("sum", "mean")


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 385
    d_inner: int = 1540
    d_state: int = 16
    d_conv: int = 4
    n_blocks: int = 2
    n_tokens: int = 160
    n_channels: int = 22
    n_samples: int = 1280
    patch_size: int = 16
    n_classes: int = 2
    dt_rank: int = 0  # 0 -> ceil(d_model / 16)
    fusion: str = "sum"
    dt_min: float = 1e-4
    dt_max: float = 10.0

    def __post_init__(self):
        if self.dt_rank == 0:
            object.__setattr__(self, "dt_rank", -(-self.d_model // 16))
        # float32, as a checkpoint or image stores them (config_f), so a
        # config loads back equal to the one saved
        for name in ("dt_min", "dt_max"):
            object.__setattr__(self, name, float(np.float32(getattr(self, name))))
        if self.n_samples % self.patch_size != 0:
            raise ValueError("n_samples must be a multiple of patch_size")
        if self.n_tokens % self.n_patches != 0:
            raise ValueError("n_tokens must be a multiple of n_samples/patch_size")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"fusion must be one of {FUSION_MODES}")

    @property
    def n_patches(self) -> int:
        return self.n_samples // self.patch_size

    @property
    def n_groups(self) -> int:
        """Feature groups emitted per temporal patch position by the tokenizer."""
        return self.n_tokens // self.n_patches


def silu(x):
    return x / (1.0 + np.exp(-x))


def softplus(x):
    # stable for large |x|
    return np.logaddexp(0.0, x)


def param_shapes(cfg: ModelConfig):
    """(name, dims) of every float parameter under its checkpoint entry name,
    in checkpoint entry order; the one list of the float model's weights. A
    tokenizer kernel row is one feature over a (channels x patch) block, a
    ``conv_w`` row one channel's causal taps (the last tap is the current
    step), and A = -exp(``a_log``)."""
    dm, di, ds, dr = cfg.d_model, cfg.d_inner, cfg.d_state, cfg.dt_rank
    gd = cfg.n_groups * dm
    yield "tokenizer.weight", (gd, cfg.n_channels, cfg.patch_size)
    yield "tokenizer.bias", (gd,)
    yield "pos_embed", (cfg.n_tokens, dm)
    for i in range(cfg.n_blocks):
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            yield from ((p + "in_proj", (2 * di, dm)), (p + "conv_w", (di, cfg.d_conv)),
                        (p + "conv_b", (di,)), (p + "x_proj", (dr + 2 * ds, di)),
                        (p + "dt_proj", (di, dr)), (p + "dt_bias", (di,)),
                        (p + "a_log", (di, ds)), (p + "d_skip", (di,)),
                        (p + "out_proj", (dm, di)))
    yield "head.weight", (cfg.n_classes, dm)
    yield "head.bias", (cfg.n_classes,)


def zero_weights(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """All weights zero except the state matrices' a_log, which make
    A = -[1, ..., d_state] in every channel."""
    a_log = np.log(np.tile(np.arange(1, cfg.d_state + 1, dtype=np.float64), (cfg.d_inner, 1)))
    return {name: a_log.copy() if name.endswith(".a_log") else np.zeros(shape)
            for name, shape in param_shapes(cfg)}


def init_weights(cfg: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Random initialization with standard fan-in scaling; for tests and demos.
    Biases start at zero, d_skip at one and a_log as in `zero_weights`; each
    branch draws its dt_bias first, then its projections and kernel."""
    rng = np.random.default_rng(seed)
    dm, di = cfg.d_model, cfg.d_inner
    w = zero_weights(cfg)
    scales = {"in_proj": 1.0 / math.sqrt(dm), "conv_w": 1.0 / math.sqrt(cfg.d_conv),
              "x_proj": 1.0 / math.sqrt(di), "dt_proj": cfg.dt_rank ** -0.5,
              "out_proj": 1.0 / math.sqrt(di)}
    for i in range(cfg.n_blocks):
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            # dt_bias is the softplus inverse of a step drawn from [1e-3, 0.1)
            w[p + "dt_bias"] = np.log(np.expm1(rng.uniform(1e-3, 0.1, size=di)))
            w[p + "d_skip"] = np.ones(di)
            for name, scale in scales.items():
                w[p + name] = rng.normal(0.0, scale, size=w[p + name].shape)
    for name, scale in (("tokenizer.weight", (cfg.n_channels * cfg.patch_size) ** -0.5),
                        ("pos_embed", 0.02), ("head.weight", dm ** -0.5)):
        w[name] = rng.normal(0.0, scale, size=w[name].shape)
    return w


def patch_matrix(window: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """(n_patches, n_channels*patch_size) matrix of flattened patches."""
    c, s = window.shape
    p = cfg.patch_size
    # (channels, n_patches, patch) -> (n_patches, channels, patch)
    patches = window.reshape(c, s // p, p).transpose(1, 0, 2)
    return patches.reshape(s // p, c * p)


def selective_scan(u, delta, a, b, c, d=None):
    """Sequential state-space recurrence.

    u:     (T, C) inputs per channel
    delta: (T, C) positive step sizes
    a:     (C, S) state matrix (negative for stability)
    b, c:  (T, S) input/output projections shared across channels
    d:     (C,) skip term, optional

    h_t = exp(delta*a) * h_{t-1} + (delta*b) * u_t, y_t = <c_t, h_t> + d*u_t.
    """
    u = np.asarray(u, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if not np.all(np.isfinite(u)) or not np.all(np.isfinite(delta)):
        raise FloatingPointError("non-finite scan input")
    if np.any(delta <= 0):
        raise ValueError("delta must be positive")
    t_len, n_ch = u.shape
    h = np.zeros((n_ch, a.shape[1]))
    abar, bx = np.empty_like(h), np.empty_like(h)
    y = np.empty((t_len, n_ch))
    for t in range(t_len):
        # h = exp(dt * a) * h + dt * b[t] * u[t], in place but in that
        # operation order, so the values stay those of the plain update
        dt = delta[t, :, None]
        np.exp(np.multiply(dt, a, out=abar), out=abar)
        h *= abar
        np.multiply(dt, b[t], out=bx)
        bx *= u[t, :, None]
        h += bx
        y[t] = h @ c[t]
    if d is not None:
        y = y + np.asarray(d, dtype=np.float64) * u
    return y


def causal_depthwise_conv(x: np.ndarray, conv_w: np.ndarray, conv_b: np.ndarray) -> np.ndarray:
    """Per-channel causal FIR along the token axis; conv_w[:, -1] taps the
    current step, earlier taps reach back in time."""
    t_len, n_ch = x.shape
    k = conv_w.shape[1]
    padded = np.concatenate([np.zeros((k - 1, n_ch)), x], axis=0)
    out = np.zeros_like(x)
    for j in range(k):
        out += padded[j:j + t_len] * conv_w[:, j]
    return out + conv_b


# ---------------------------------------------------------------------------
# quantize-dequantize

def fake_quantize(a: np.ndarray, n: int) -> np.ndarray:
    """``a`` on the INT8 grid 2^-n: rounded half away from zero and clipped
    to ±127, in float, so no value wraps in an integer cast. A zero comes
    out as +0."""
    x = np.asarray(a, dtype=np.float64) * 2.0 ** n
    q = np.clip(np.sign(x) * np.floor(np.abs(x) + 0.5), -127, 127) + 0.0  # -0 + 0 = +0
    return q * 2.0 ** (-n)


# ---------------------------------------------------------------------------
# the graph walker

def tensor_table(weights: dict[str, np.ndarray], cfg: ModelConfig) -> dict[str, tuple]:
    """Every tensor of the float model as ``name -> (weight, bias)``, under the
    names of `quantizer.tensor_shapes`. This is the one map from the
    parameters of `param_shapes` to tensor names. A ``conv`` weight is the
    per-channel kernel, ``a_mat`` is A = -exp(a_log), and ``bias`` is None
    where the model has none."""
    w = weights
    tok = w["tokenizer.weight"]
    table = {"tokenizer": (tok.reshape(tok.shape[0], -1), w["tokenizer.bias"]),
             "pos": (w["pos_embed"], None)}
    for i in range(cfg.n_blocks):
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            table.update({p + "in_proj": (w[p + "in_proj"], None),
                          p + "conv": (w[p + "conv_w"], w[p + "conv_b"]),
                          p + "x_proj": (w[p + "x_proj"], None),
                          p + "dt_proj": (w[p + "dt_proj"], w[p + "dt_bias"]),
                          p + "out_proj": (w[p + "out_proj"], None),
                          p + "a_mat": (-np.exp(w[p + "a_log"]), None),
                          p + "d_skip": (w[p + "d_skip"], None)})
    table["head"] = (w["head.weight"], w["head.bias"])
    return table


class Walk:
    """The network graph in float arithmetic, the one place it is written out.

    The float model, the fake-quantized model and a deployment image's float
    view differ only in their ``table`` of tensors (see `tensor_table`) and
    in ``exps``: None for the float model, else each tap's power-of-two
    exponent, where `fake_quantize` puts the activations on the INT8 grid.
    With a ``trace`` dict the walk records every tap, every layer output as
    ``linear:<name>`` and ``logits``. Every walk also notes its taps in order
    and, per layer, the tap it reads and the taps its output columns feed;
    `graph` reads the tap and layer lists off that record.
    """

    def __init__(self, table: dict[str, tuple], cfg: ModelConfig,
                 exps: dict[str, int] | None = None, trace: dict | None = None):
        self.table, self.cfg, self.exps, self.trace = table, cfg, exps, trace
        self.taps: list[str] = []
        self.layers: dict[str, dict] = {}

    def _record(self, key: str, x: np.ndarray):
        if self.trace is not None:
            self.trace[key] = x

    def tap(self, x: np.ndarray, name: str, of: str | None = None) -> np.ndarray:
        """Quantization point ``name``; ``of`` is the layer whose output ``x`` is."""
        if self.exps is not None:
            x = fake_quantize(x, self.exps[name])
        self.taps.append(name)
        if of is not None:
            layer = self.layers[of]
            layer["out_taps"].append((name, x.size // layer["positions"]))
        self._record(name, x)
        return x

    def linear(self, name: str, x: np.ndarray, src: str) -> np.ndarray:
        """Layer ``name`` on ``x``, the activations of tap ``src``."""
        w, b = self.table[name]
        if name.endswith(".conv"):
            y = causal_depthwise_conv(x, w, b)
        elif name == "head":
            # one reduction per class row, so a logit's rounding does not
            # depend on the position of its row
            y = (w * x).sum(axis=-1) + b
        else:
            y = x @ w.T
            if b is not None:
                y = y + b
        self.layers[name] = dict(in_tap=src, out_taps=[], positions=y.size // y.shape[-1])
        self._record("linear:" + name, y)
        return y

    def tokenize(self, window: np.ndarray) -> np.ndarray:
        """Strided 2D conv over (channels x patch) blocks + positional embedding.

        Each of the n_patches positions yields n_groups feature groups of width
        d_model; tokens are ordered position-major (token p*G+g).
        """
        cfg = self.cfg
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (cfg.n_channels, cfg.n_samples):
            raise ValueError(
                f"window shape {window.shape} != ({cfg.n_channels}, {cfg.n_samples})")
        x = self.tap(window, "input")
        feats = self.linear("tokenizer", patch_matrix(x, cfg), "input")
        tok_conv = self.tap(feats.reshape(cfg.n_tokens, cfg.d_model), "tok_conv",
                            of="tokenizer")
        return self.tap(tok_conv + self.table["pos"][0], "tokens")

    def branch(self, tokens: np.ndarray, i: int, d: str) -> np.ndarray:
        """Scan direction ``d`` of block ``i``. The backward branch reverses the
        token sequence before and after the shared forward machinery."""
        cfg = self.cfg
        src = "tokens" if i == 0 else f"blocks.{i - 1}.out"
        p = f"blocks.{i}.{d}."
        xz = self.linear(p + "in_proj", tokens if d == "fwd" else tokens[::-1], src)
        x = self.tap(xz[:, :cfg.d_inner], p + "x", of=p + "in_proj")
        gate = self.tap(xz[:, cfg.d_inner:], p + "gate", of=p + "in_proj")
        conv = self.tap(self.linear(p + "conv", x, p + "x"), p + "conv", of=p + "conv")
        u = self.tap(silu(conv), p + "u")

        dbl = self.linear(p + "x_proj", u, p + "u")
        dr, ds = cfg.dt_rank, cfg.d_state
        dt_raw = self.tap(dbl[:, :dr], p + "dt_raw", of=p + "x_proj")
        b = self.tap(dbl[:, dr:dr + ds], p + "b", of=p + "x_proj")
        c = self.tap(dbl[:, dr + ds:], p + "c", of=p + "x_proj")
        dt_pre = self.tap(self.linear(p + "dt_proj", dt_raw, p + "dt_raw"), p + "dt_pre",
                          of=p + "dt_proj")

        delta = np.clip(softplus(dt_pre), cfg.dt_min, cfg.dt_max)
        a, d_skip = self.table[p + "a_mat"][0], self.table[p + "d_skip"][0].reshape(-1)
        y = self.tap(selective_scan(u, delta, a, b, c, d_skip), p + "y")
        gated = self.tap(y * silu(gate), p + "gated")
        out = self.linear(p + "out_proj", gated, p + "gated")
        return self.tap(out if d == "fwd" else out[::-1], p + "branch", of=p + "out_proj")

    def block(self, tokens: np.ndarray, i: int) -> np.ndarray:
        """Bidirectional block ``i``: the two branches added (or averaged, with
        mean fusion) around a residual."""
        f = self.branch(tokens, i, "fwd")
        b = self.branch(tokens, i, "bwd")
        fused = f + b if self.cfg.fusion == "sum" else 0.5 * (f + b)
        fused = self.tap(fused, f"blocks.{i}.fused")
        return self.tap(tokens + fused, f"blocks.{i}.out")

    def run(self, window: np.ndarray) -> np.ndarray:
        """Window (n_channels, n_samples) -> class logits (n_classes,)."""
        tokens = self.tokenize(window)
        for i in range(self.cfg.n_blocks):
            tokens = self.block(tokens, i)
        pooled = self.tap(tokens.mean(axis=0), "pooled")
        logits = self.linear("head", pooled, "pooled")
        self._record("logits", logits)
        return logits


def forward(window: np.ndarray, weights: dict[str, np.ndarray], cfg: ModelConfig,
            trace: dict | None = None) -> np.ndarray:
    """Window (n_channels, n_samples) -> class logits (n_classes,)."""
    return Walk(tensor_table(weights, cfg), cfg, trace=trace).run(window)


def forward_with_trace(window, weights, cfg) -> tuple[np.ndarray, dict]:
    trace: dict = {}
    logits = forward(window, weights, cfg, trace=trace)
    return logits, trace


@functools.cache
def graph(cfg: ModelConfig) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """Taps and layers of the network in walk order, read off one walk.

    A layer is ``(name, in_tap, out_taps)``: the tap it reads and the
    ``(tap, rows)`` its output rows feed. Names and widths do not depend on
    the number of patches or on the weights, so the walk covers a single
    patch position with zero weights.
    """
    one = replace(cfg, n_samples=cfg.patch_size, n_tokens=cfg.n_groups)
    walk = Walk(tensor_table(zero_weights(one), one), one)
    walk.run(np.zeros((one.n_channels, one.n_samples)))
    return tuple(walk.taps), tuple((name, layer["in_tap"], tuple(layer["out_taps"]))
                                   for name, layer in walk.layers.items())


def quant_points(cfg: ModelConfig) -> list[str]:
    """Ordered names of every activation quantization point in the network."""
    return list(graph(cfg)[0])
