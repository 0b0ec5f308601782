"""Memory-streaming simulator with a MACs/cycle cost model.

Models the double-buffered weight path of the target device: the tensors of
a deployment image (`quantizer.tensor_shapes`, each of the size the image
stores it at, `container.payload_size` of the mode's weight dtype) stream
from off-chip storage to on-chip L2 in fixed-size chunks while the cores
compute on the previous chunk. Produces per-layer and per-sub-operation
cycle breakdowns, compute/transfer overlap, latency, and energy.

Pipeline model per layer: chunks (c_i = compute cycles, t_i = transfer
cycles) execute as t_0 + sum_i max(c_i, t_{i+1}); the leading fill transfer
is charged explicitly. Overlap is measured over the steady-state transfers
(everything after the fill): 100% when each is fully hidden under the
previous chunk's compute.

One transfer stage is enough. Each chunk moves on from L2 to L1, and two
pipelined stages move data at the rate of the slower one, so a chunk's
transfer is charged at min(L2, L1) bandwidth; the double buffering that
hides it is `_pipeline_cycles`. Only the second stage's own fill is left out,
one half-L1 tile (~2,000 cycles at the default bandwidths). The plan checks
what that stage needs: one row of every tensor fits half of L1.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .container import payload_size
from .image import WEIGHT_DTYPE
from .model import ModelConfig
from .quantizer import MODES, tensor_shapes

SUB_OP_ORDER = ("input_proj", "seq_reversal_fwd", "conv", "scan",
                "output_proj", "seq_reversal_bwd", "fusion")
SUB_OP_TITLES = {
    "input_proj": "Input Projection",
    "seq_reversal_fwd": "Sequence Reversal",
    "conv": "Local Temporal Conv.",
    "scan": "Selective SSM Scan",
    "output_proj": "Output Projection",
    "seq_reversal_bwd": "Sequence Reversal",
    "fusion": "Bidirectional Fusion",
}


class PlanError(ValueError):
    """Tiling constraint violated (e.g. one row cannot fit half of L1)."""


@dataclass(frozen=True)
class MemHierarchy:
    l1_bytes: int = 131072
    l2_bytes: int = 1572864
    l3_chunk_bytes: int = 81920
    l2_bandwidth_bytes_per_cycle: float = 4.0   # L3 -> L2 DMA
    l1_bandwidth_bytes_per_cycle: float = 32.0  # L2 -> L1 tiling
    clock_hz: float = 3.7e8
    avg_power_w: float = 0.0441

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise PlanError(f"{f.name} must be positive")
        if self.l3_chunk_bytes > self.l2_bytes // 2:
            raise PlanError("chunk size must leave room for two resident chunks in L2")


@dataclass(frozen=True)
class CostModel:
    # dense-equivalent MACs per cycle per op class
    throughput: dict = field(default_factory=lambda: {
        "input_proj": 2.65, "output_proj": 3.91, "conv": 0.11, "scan": 0.32})
    # fixed cycle budgets for non-MAC sub-ops and small layers
    fixed_cycles: dict = field(default_factory=lambda: {
        "seq_reversal_fwd": 1.6e6, "seq_reversal_bwd": 1.0e6, "fusion": 2.1e6,
        "patch_embed": 8.0e6, "pos_embed": 2.3e6, "global_pool": 0.5e6,
        "classifier": 0.05e6})
    scan_macs_per_step: int = 256

    def __post_init__(self):
        if any(v <= 0 for v in self.throughput.values()):
            raise PlanError("throughputs must be positive")
        if self.scan_macs_per_step <= 0:
            raise PlanError("'scan_macs_per_step' must be positive")
        for name, v in self.fixed_cycles.items():
            if v < 0:
                raise PlanError(f"'fixed_cycles.{name}' must not be negative")


def mac_count(cfg: ModelConfig, cm: CostModel = CostModel()) -> dict[str, int]:
    """Per-block dense-equivalent MAC counts for the four scan-branch sub-ops.

    The scan row counts ``cm.scan_macs_per_step`` per channel-step, by default
    the device accounting's table constant 256; the recurrence's own count is
    3*d_state + 2, 50 at the default shape.
    """
    return {
        "input_proj": cfg.n_tokens * cfg.d_model * 2 * cfg.d_inner,
        "output_proj": cfg.n_tokens * cfg.d_inner * cfg.d_model,
        "conv": cfg.n_tokens * cfg.d_inner * cfg.d_conv,
        "scan": cm.scan_macs_per_step * cfg.n_tokens * cfg.d_inner,
    }


# ---------------------------------------------------------------------------
# model -> streamable tensors

@dataclass(frozen=True)
class SubOp:
    name: str
    macs: int = 0
    fixed_cycles: float = 0.0
    tensors: tuple = ()  # (tensor_name, bytes, row_bytes)


@dataclass(frozen=True)
class LayerPlanSpec:
    name: str
    sub_ops: tuple


# the sub-op that streams each tensor of an image, by the last part of its name
_TENSOR_SUB_OP = {"tokenizer": "patch_embed", "pos": "pos_embed", "in_proj": "input_proj",
                  "conv": "conv", "x_proj": "scan", "dt_proj": "scan", "a_mat": "scan",
                  "d_skip": "scan", "out_proj": "output_proj", "head": "classifier"}


def model_layers(cfg: ModelConfig, cm: CostModel, mode: str = "w8a8") -> list[LayerPlanSpec]:
    """Layer/sub-op schedule for the full encoder in report order; every
    tensor of the image streams under its sub-op, in `tensor_shapes` order."""
    macs = mac_count(cfg, cm)
    dtype = WEIGHT_DTYPE[MODES[mode]]  # fp32 streams the checkpoint's f32 tensors
    streamed: dict[tuple[str, str], list] = {}  # (layer, sub-op) -> tensors
    for name, (rows, cols) in tensor_shapes(cfg):
        parts = name.split(".")
        sub = _TENSOR_SUB_OP[parts[-1]]
        owner = f"mamba_blocks.{parts[1]}" if parts[0] == "blocks" else sub
        streamed.setdefault((owner, sub), []).append(
            (name, payload_size(dtype, (rows, cols)), payload_size(dtype, (cols,))))

    def layer(name: str, sub_ops=None) -> LayerPlanSpec:
        subs = []
        for sub in sub_ops or (name,):
            cost = (dict(macs=macs[sub]) if sub in macs
                    else dict(fixed_cycles=cm.fixed_cycles[sub]))
            subs.append(SubOp(sub, tensors=tuple(streamed.get((name, sub), ())), **cost))
        return LayerPlanSpec(name, tuple(subs))

    return ([layer("patch_embed"), layer("pos_embed")] +
            [layer(f"mamba_blocks.{i}", SUB_OP_ORDER) for i in range(cfg.n_blocks)] +
            [layer("global_pool"), layer("classifier")])


# ---------------------------------------------------------------------------
# streaming plan

@dataclass(frozen=True)
class Chunk:
    layer: str
    sub_op: str
    tensor: str
    start: int
    nbytes: int


@dataclass(frozen=True)
class StreamPlan:
    chunks: tuple  # Chunk, in execution order
    layers: tuple  # LayerPlanSpec


def plan_stream(layers: list[LayerPlanSpec], h: MemHierarchy) -> StreamPlan:
    """Chunk every weight tensor into <= l3_chunk_bytes transfers covering it
    exactly once; PlanError if a row of a tensor cannot fit half of L1."""
    half_l1 = h.l1_bytes // 2
    chunks = []
    for layer in layers:
        for sub in layer.sub_ops:
            for tname, nbytes, row_bytes in sub.tensors:
                if row_bytes > half_l1:
                    raise PlanError(
                        f"{tname}: row of {row_bytes} B cannot fit half of L1 ({half_l1} B)")
                for pos in range(0, nbytes, h.l3_chunk_bytes):
                    chunks.append(Chunk(layer.name, sub.name, tname, pos,
                                        min(h.l3_chunk_bytes, nbytes - pos)))
    return StreamPlan(tuple(chunks), tuple(layers))


# ---------------------------------------------------------------------------
# simulation

@dataclass
class LayerReport:
    name: str
    cycles: float
    macs: int
    overlap_pct: float
    bytes_moved: int
    pct: float = 0.0

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / self.cycles if self.cycles else 0.0


@dataclass
class SubOpReport:
    layer: str
    name: str
    cycles: float
    macs: int
    pct: float = 0.0

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / self.cycles if self.cycles else 0.0


@dataclass
class CycleReport:
    layers: list
    sub_ops: list
    total_cycles: float
    total_macs: int
    latency_s: float
    energy_j: float
    overlap_pct: float


def simulate(plan: StreamPlan, cm: CostModel, h: MemHierarchy) -> CycleReport:
    """Walk the plan layer by layer with double-buffered transfer hiding."""
    bw = min(h.l2_bandwidth_bytes_per_cycle, h.l1_bandwidth_bytes_per_cycle)
    layer_reports, sub_reports = [], []
    total_cycles = 0.0
    total_macs = 0
    hidden_all = 0.0
    steady_all = 0.0

    by_layer: dict[str, list[Chunk]] = {l.name: [] for l in plan.layers}
    for ch in plan.chunks:
        by_layer[ch.layer].append(ch)

    for layer in plan.layers:
        # compute cycles per chunk: each sub-op's compute is spread over its
        # chunks proportionally to bytes (one virtual chunk when nothing streams)
        pairs = []  # (compute, transfer)
        layer_macs = 0
        for sub in layer.sub_ops:
            compute = sub.fixed_cycles + (sub.macs / cm.throughput[sub.name] if sub.macs else 0.0)
            layer_macs += sub.macs
            sub_chunks = [c for c in by_layer[layer.name] if c.sub_op == sub.name]
            sub_bytes = sum(c.nbytes for c in sub_chunks)
            if not sub_chunks:
                sub_pairs = [(compute, 0.0)]
            else:
                sub_pairs = [(compute * c.nbytes / sub_bytes, c.nbytes / bw)
                             for c in sub_chunks]
            pairs.extend(sub_pairs)
            sub_reports.append(SubOpReport(layer.name, sub.name,
                                           _pipeline_cycles(sub_pairs), sub.macs))
        cycles = _pipeline_cycles(pairs)
        hidden, steady = _overlap_components(pairs)
        overlap = 100.0 * hidden / steady if steady > 0 else 100.0
        hidden_all += hidden
        steady_all += steady
        layer_reports.append(LayerReport(layer.name, cycles, layer_macs, overlap,
                                         sum(c.nbytes for c in by_layer[layer.name])))
        total_cycles += cycles
        total_macs += layer_macs

    for r in layer_reports:
        r.pct = 100.0 * r.cycles / total_cycles if total_cycles else 0.0
    for r in sub_reports:
        layer_total = sum(s.cycles for s in sub_reports if s.layer == r.layer)
        r.pct = 100.0 * r.cycles / layer_total if layer_total else 0.0

    latency = total_cycles / h.clock_hz
    return CycleReport(
        layers=layer_reports, sub_ops=sub_reports, total_cycles=total_cycles,
        total_macs=total_macs, latency_s=latency, energy_j=latency * h.avg_power_w,
        overlap_pct=100.0 * hidden_all / steady_all if steady_all > 0 else 100.0)


def _pipeline_cycles(pairs) -> float:
    """t_0 + sum_i max(c_i, t_{i+1}): leading fill, then compute hides the
    next transfer."""
    if not pairs:
        return 0.0
    total = pairs[0][1]
    for i, (c, _) in enumerate(pairs):
        t_next = pairs[i + 1][1] if i + 1 < len(pairs) else 0.0
        total += max(c, t_next)
    return total


def _overlap_components(pairs) -> tuple[float, float]:
    hidden = 0.0
    steady = 0.0
    for i in range(1, len(pairs)):
        t = pairs[i][1]
        steady += t
        hidden += min(t, pairs[i - 1][0])
    return hidden, steady


def run_default(cfg: ModelConfig = ModelConfig(), cm: CostModel = CostModel(),
                h: MemHierarchy = MemHierarchy(), mode: str = "w8a8") -> CycleReport:
    return simulate(plan_stream(model_layers(cfg, cm, mode), h), cm, h)


# ---------------------------------------------------------------------------
# rendering

def report(cr: CycleReport, fmt: str = "text") -> str:
    """``cr`` as `femba bench` prints it. text: the layer and sub-op tables,
    latency and energy. csv: a row per layer and sub-op, then the totals.
    json: the totals and every layer and sub-op record by its field names."""
    if fmt == "json":
        return json.dumps(dict(cycles=cr.total_cycles, seconds=cr.latency_s,
                               millijoules=cr.energy_j * 1e3, macs=cr.total_macs,
                               overlap_pct=cr.overlap_pct, layers=list(map(asdict, cr.layers)),
                               sub_ops=list(map(asdict, cr.sub_ops))), sort_keys=True) + "\n"
    if fmt == "csv":
        return _report_csv(cr)
    if fmt != "text":
        raise ValueError("format must be 'text', 'csv' or 'json'")
    out = io.StringIO()
    out.write(f"{'Layer':<18} {'Cycles (M)':>11} {'% Total':>8} {'Overlap %':>10}\n")
    for r in cr.layers:
        out.write(f"{r.name:<18} {r.cycles / 1e6:>11.1f} {r.pct:>8.1f} "
                  f"{r.overlap_pct:>10.1f}\n")
    out.write(f"{'Total':<18} {cr.total_cycles / 1e6:>11.1f} {100.0:>8.1f}\n\n")
    for layer in cr.layers:
        subs = [s for s in cr.sub_ops if s.layer == layer.name]
        if len(subs) < 2:
            continue
        out.write(f"{layer.name}\n")
        out.write(f"  {'Operation':<24} {'Cycles (M)':>11} {'%':>7} "
                  f"{'MACs (M)':>9} {'MACs/Cyc':>9}\n")
        for s in subs:
            macs = f"{s.macs / 1e6:.1f}" if s.macs else "-"
            mpc = f"{s.macs_per_cycle:.2f}" if s.macs else "-"
            out.write(f"  {SUB_OP_TITLES.get(s.name, s.name):<24} "
                      f"{s.cycles / 1e6:>11.1f} {s.pct:>7.1f} {macs:>9} {mpc:>9}\n")
        out.write("\n")
    out.write(f"Latency: {cr.latency_s:.4f} s @ {cr.total_cycles / cr.latency_s / 1e6:.0f} MHz\n"
              if cr.latency_s else "")
    out.write(f"Energy:  {cr.energy_j * 1e3:.2f} mJ\n")
    return out.getvalue()


def _report_csv(cr: CycleReport) -> str:
    lines = ["section,layer,operation,cycles,pct,overlap_pct,macs,macs_per_cycle"]
    for r in cr.layers:
        lines.append(f"layer,{r.name},,{r.cycles:.6f},{r.pct:.6f},"
                     f"{r.overlap_pct:.6f},{r.macs},{r.macs_per_cycle:.6f}")
    for s in cr.sub_ops:
        lines.append(f"sub_op,{s.layer},{s.name},{s.cycles:.6f},{s.pct:.6f},,"
                     f"{s.macs},{s.macs_per_cycle:.6f}")
    lines.append(f"total,,,{cr.total_cycles:.6f},100.000000,{cr.overlap_pct:.6f},"
                 f"{cr.total_macs},{cr.total_macs / cr.total_cycles:.6f}")
    lines.append(f"latency_s,,,{cr.latency_s:.9f},,,,")
    lines.append(f"energy_j,,,{cr.energy_j:.9f},,,,")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# key = value config files

def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PlanError(f"config line {lineno}: {line.split()[0]!r} is not 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        try:
            out[key] = float(val) if ("." in val or "e" in val.lower()) else int(val)
        except ValueError:
            out[key] = val
    return out


def config_values(kv: dict, *classes) -> list[dict]:
    """Keyword arguments for each dataclass of ``classes`` from the parsed
    config ``kv``. Each key names a field, or ``<field>.<entry>`` an entry of
    a dict field, and each value has its default's kind: an int for an int,
    a string for a string, any finite number for a float. PlanError naming
    the key for any other key or value."""
    kwargs, known = [], {}
    for cls in classes:
        kw, defaults = {}, cls()
        for f in fields(cls):
            default = getattr(defaults, f.name)
            if isinstance(default, dict):
                kw[f.name] = dict(default)
                known.update({f"{f.name}.{k}": (kw[f.name], k, v) for k, v in default.items()})
            else:
                known[f.name] = (kw, f.name, default)
        kwargs.append(kw)
    for key, val in kv.items():
        if key not in known:
            raise PlanError(f"unknown config key {key!r}")
        target, name, default = known[key]
        if isinstance(default, float):
            ok = isinstance(val, (int, float)) and math.isfinite(val)
        else:
            ok = type(val) is type(default)
        if not ok:
            raise PlanError(f"config key {key!r} = {val!r}: expected {type(default).__name__}")
        target[name] = float(val) if isinstance(default, float) else val
    return kwargs


def config_from_mapping(kv: dict) -> tuple[MemHierarchy, CostModel, str]:
    """The memory hierarchy, cost model and mode of a parsed config file."""
    kv = dict(kv)
    mode = kv.pop("mode", "w8a8")
    if mode not in MODES:
        raise PlanError(f"mode {mode!r} is not one of {', '.join(MODES)}")
    h_kw, cm_kw = config_values(kv, MemHierarchy, CostModel)
    return MemHierarchy(**h_kw), CostModel(**cm_kw), mode
