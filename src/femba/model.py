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
from dataclasses import dataclass, field, replace

import numpy as np

FUSION_MODES = ("sum", "mean", "concat_project")


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


@dataclass
class BranchParams:
    """One scan direction: projections, local conv, and SSM parameters."""
    in_proj: np.ndarray   # (2*d_inner, d_model)
    conv_w: np.ndarray    # (d_inner, d_conv), last tap is the current sample
    conv_b: np.ndarray    # (d_inner,)
    x_proj: np.ndarray    # (dt_rank + 2*d_state, d_inner)
    dt_proj: np.ndarray   # (d_inner, dt_rank)
    dt_bias: np.ndarray   # (d_inner,)
    a_log: np.ndarray     # (d_inner, d_state); A = -exp(a_log)
    d_skip: np.ndarray    # (d_inner,)
    out_proj: np.ndarray  # (d_model, d_inner)


@dataclass
class BlockParams:
    fwd: BranchParams
    bwd: BranchParams
    fuse_proj: np.ndarray | None = None  # (d_model, 2*d_model) for concat_project


@dataclass
class FembaWeights:
    tok_kernel: np.ndarray  # (n_groups*d_model, n_channels, patch_size)
    tok_bias: np.ndarray    # (n_groups*d_model,)
    pos_embed: np.ndarray   # (n_tokens, d_model)
    blocks: list[BlockParams] = field(default_factory=list)
    head_w: np.ndarray = None  # (n_classes, d_model)
    head_b: np.ndarray = None  # (n_classes,)


def silu(x):
    return x / (1.0 + np.exp(-x))


def softplus(x):
    # stable for large |x|
    return np.logaddexp(0.0, x)


def _init_branch(cfg: ModelConfig, rng: np.random.Generator) -> BranchParams:
    dm, di, ds, dc, dr = cfg.d_model, cfg.d_inner, cfg.d_state, cfg.d_conv, cfg.dt_rank
    def lin(n_out, n_in):
        return rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_out, n_in))
    a = np.tile(np.arange(1, ds + 1, dtype=np.float64), (di, 1))
    dt_bias = np.log(np.expm1(rng.uniform(1e-3, 0.1, size=di)))  # softplus inverse
    return BranchParams(
        in_proj=lin(2 * di, dm),
        conv_w=rng.normal(0.0, 1.0 / math.sqrt(dc), size=(di, dc)),
        conv_b=np.zeros(di),
        x_proj=lin(dr + 2 * ds, di),
        dt_proj=rng.normal(0.0, dr ** -0.5, size=(di, dr)),
        dt_bias=dt_bias,
        a_log=np.log(a),
        d_skip=np.ones(di),
        out_proj=lin(dm, di),
    )


def init_weights(cfg: ModelConfig, seed: int = 0) -> FembaWeights:
    """Random initialization with standard fan-in scaling; for tests and demos."""
    return _make_weights(cfg, np.random.default_rng(seed))


class _ZeroDraws:
    """Stands in for the random generator of `_make_weights`: every draw is
    zeros (uniform draws take their lower bound)."""

    def normal(self, loc, scale, size):
        return np.zeros(size)

    def uniform(self, low, high, size):
        return np.full(size, float(low))


def _make_weights(cfg: ModelConfig, rng) -> FembaWeights:
    gd = cfg.n_groups * cfg.d_model
    blocks = []
    for _ in range(cfg.n_blocks):
        fuse = None
        if cfg.fusion == "concat_project":
            fuse = rng.normal(0.0, (2 * cfg.d_model) ** -0.5,
                              size=(cfg.d_model, 2 * cfg.d_model))
        blocks.append(BlockParams(_init_branch(cfg, rng), _init_branch(cfg, rng), fuse))
    return FembaWeights(
        tok_kernel=rng.normal(0.0, (cfg.n_channels * cfg.patch_size) ** -0.5,
                              size=(gd, cfg.n_channels, cfg.patch_size)),
        tok_bias=np.zeros(gd),
        pos_embed=rng.normal(0.0, 0.02, size=(cfg.n_tokens, cfg.d_model)),
        blocks=blocks,
        head_w=rng.normal(0.0, cfg.d_model ** -0.5, size=(cfg.n_classes, cfg.d_model)),
        head_b=np.zeros(cfg.n_classes),
    )


def zero_weights(cfg: ModelConfig) -> FembaWeights:
    """All weights zero except the state matrices' a_log."""
    w = _make_weights(cfg, _ZeroDraws())
    for blk in w.blocks:
        for br in (blk.fwd, blk.bwd):
            br.dt_bias = np.zeros_like(br.dt_bias)
            br.d_skip = np.zeros_like(br.d_skip)
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
    abar = np.exp(delta[:, :, None] * a[None, :, :])          # (T, C, S)
    bx = delta[:, :, None] * b[:, None, :] * u[:, :, None]    # (T, C, S)
    h = np.zeros((n_ch, a.shape[1]))
    y = np.empty((t_len, n_ch))
    for t in range(t_len):
        h = abar[t] * h + bx[t]
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


def fuse_branches(f: np.ndarray, b: np.ndarray, cfg: ModelConfig,
                  fuse_proj: np.ndarray | None = None) -> np.ndarray:
    if cfg.fusion == "sum":
        return f + b
    if cfg.fusion == "mean":
        return 0.5 * (f + b)
    if fuse_proj is None:
        raise ValueError("concat_project fusion requires a fuse_proj matrix")
    return np.concatenate([f, b], axis=1) @ fuse_proj.T


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

def tensor_table(weights: FembaWeights, cfg: ModelConfig) -> dict[str, tuple]:
    """Every tensor of the float model as ``name -> (weight, bias)``, under the
    names of `quantizer.tensor_shapes` plus ``blocks.<i>.fuse_proj`` with
    concat_project fusion. This is the one map from `FembaWeights` fields to
    tensor names. A ``conv`` weight is the per-channel kernel, ``a_mat`` is
    A = -exp(a_log), and ``bias`` is None where the model has none."""
    w = weights
    table = {"tokenizer": (w.tok_kernel.reshape(w.tok_kernel.shape[0], -1), w.tok_bias),
             "pos": (w.pos_embed, None)}
    for i in range(cfg.n_blocks):
        blk = w.blocks[i]
        for d, br in (("fwd", blk.fwd), ("bwd", blk.bwd)):
            p = f"blocks.{i}.{d}."
            table.update({p + "in_proj": (br.in_proj, None),
                          p + "conv": (br.conv_w, br.conv_b),
                          p + "x_proj": (br.x_proj, None),
                          p + "dt_proj": (br.dt_proj, br.dt_bias),
                          p + "out_proj": (br.out_proj, None),
                          p + "a_mat": (-np.exp(br.a_log), None),
                          p + "d_skip": (br.d_skip, None)})
        if cfg.fusion == "concat_project":
            table[f"blocks.{i}.fuse_proj"] = (blk.fuse_proj, None)
    table["head"] = (w.head_w, w.head_b)
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
        """Bidirectional block ``i``: fused branches around a residual."""
        f = self.branch(tokens, i, "fwd")
        b = self.branch(tokens, i, "bwd")
        proj = self.table.get(f"blocks.{i}.fuse_proj", (None,))[0]
        fused = self.tap(fuse_branches(f, b, self.cfg, proj), f"blocks.{i}.fused")
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


def forward(window: np.ndarray, weights: FembaWeights, cfg: ModelConfig,
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
