"""Which toolchain functions the traced run wraps, and the per-layer metrics
derived from their spans and counts.

Every per-layer metric is per traced iteration: totals over the traced
iterations of a run divided by their number. Self time is summed over
threads, so a function that runs on both threads of a pool can report more
self time than wall time.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from .tracing import Target, Tracer, by_name, check_metric_name

SELF_TIMED = {
    "signal_pipeline": ("bandpass", "notch", "resample", "segment",
                        "channel_quartiles", "iqr_normalize"),
    "container": ("Container.save", "Container.load"),
    "model": ("forward", "forward_with_trace", "selective_scan"),
    "quantizer": ("calibrate", "quantize_weights", "ternarize", "pack_ternary",
                  "bias_correct", "fake_quant_forward"),
    "image": ("build_image", "load_image"),
    "engine": ("engine_forward", "int8_matmul", "ternary_matmul", "unpack_rows",
               "depthwise_conv_int8", "lut_eval", "q15_scan_core", "rhu_shift"),
    "reference": ("reference_int_forward", "fakequant_float_from_image"),
    "streamsim": ("run_default",),
}
CALL_COUNTED = ("model.forward", "model.forward_with_trace", "model.selective_scan",
                "quantizer.fake_quant_forward")
CLI_COMMANDS = ("preprocess", "quantize", "infer", "bench")

# streamsim's own layer and sub-op names at the default configuration
STREAMSIM_LAYERS = ("patch_embed", "pos_embed", "mamba_blocks.0", "mamba_blocks.1",
                    "global_pool", "classifier")
STREAMSIM_SUB_OPS = ("patch_embed", "pos_embed", "input_proj", "seq_reversal_fwd",
                     "conv", "scan", "output_proj", "seq_reversal_bwd", "fusion",
                     "global_pool", "classifier")


def _metric_list() -> list[tuple[str, str, str]]:
    """(name, unit, which direction is better) of every per-layer metric."""
    out = []
    for module, funcs in SELF_TIMED.items():
        out += [(f"{module}.{f}.self_s", "s", "lower") for f in funcs]
    out += [(f"{name}.calls", "count", "lower") for name in CALL_COUNTED]
    out += [
        ("signal_pipeline.samples_in", "count", "higher"),
        ("signal_pipeline.windows_out", "count", "higher"),
        ("container.bytes_written", "B", "lower"),
        ("container.bytes_read", "B", "lower"),
        ("quantizer.bias_correct.useful_ratio", "ratio", "higher"),
        ("image.bytes", "B", "lower"),
        ("engine.int8_matmul.macs", "count", "lower"),
        ("engine.ternary_matmul.macs", "count", "lower"),
        ("engine.scan_sat_events", "count", "lower"),
        ("engine.scan_steps", "count", "lower"),
        ("engine.window_s_p50", "s", "lower"),
        ("streamsim.total_cycles", "cycles", "lower"),
    ]
    out += [(f"streamsim.layer.{n}.cycles", "cycles", "lower") for n in STREAMSIM_LAYERS]
    out += [(f"streamsim.sub_op.{n}.cycles", "cycles", "lower") for n in STREAMSIM_SUB_OPS]
    out += [
        ("streamsim.overlap_pct", "%", "higher"),
        ("streamsim.bytes_moved", "B", "lower"),
        ("streamsim.chunks", "count", "lower"),
    ]
    out += [(f"cli.{c}.self_s", "s", "lower") for c in CLI_COMMANDS]
    out += [
        ("cli.ops_attempted", "count", "higher"),
        ("cli.ops_failed", "count", "lower"),
        ("trace.iteration_s", "s", "lower"),
        ("trace.untraced.iteration_s", "s", "lower"),
        ("trace.overhead.iteration_s", "s", "lower"),
        ("trace.overhead.primary_windows_per_s", "windows/s", "higher"),
        ("trace.spans", "count", "lower"),
    ]
    return [(check_metric_name(n), u, b) for n, u, b in out]


PER_LAYER = _metric_list()


# -- hooks: counts recorded where the work happens ---------------------------

def _rows(a) -> int:
    return int(np.shape(a)[0])


def _preprocess_counts(tr: Tracer, args, kwargs, result):
    tr.add("signal_pipeline.samples_in", int(np.size(args[0].samples)))
    tr.add("signal_pipeline.windows_out", len(result[0]))


def _bytes(key):
    def hook(tr: Tracer, args, kwargs, result):
        tr.add(key, os.path.getsize(args[1]))
    return hook


def _int8_macs(tr: Tracer, args, kwargs, result):
    d_out, d_in = np.shape(args[1])
    tr.add("engine.int8_matmul.macs", _rows(args[0]) * d_out * d_in)


def _ternary_macs(tr: Tracer, args, kwargs, result):
    d_out, d_in = args[2]
    tr.add("engine.ternary_matmul.macs", _rows(args[0]) * d_out * d_in)


def _engine_trace_in(tr: Tracer, args, kwargs):
    """Ask the engine for its full trace so the traced run can compare it
    with the reference trace of the same window."""
    if len(args) < 4 and kwargs.get("trace") is None:
        kwargs = dict(kwargs, trace={})
    return args, kwargs


def _engine_out(tr: Tracer, args, kwargs, result):
    stats = result[2]
    tr.add("engine.scan_sat_events", stats.scan_sat_events)
    tr.add("engine.scan_steps", stats.scan_steps)
    tr.captured["engine_traces"].append(kwargs.get("trace", args[3] if len(args) > 3 else None))


def _bias_corrected(tr: Tracer, args, kwargs, result):
    """Each corrected layer uses one layer output per calibration window."""
    windows = kwargs.get("windows", args[3] if len(args) > 3 else ())
    tr.add("quantizer.bias_correct.outputs_used", len(result) * len(windows))


def _fq_layer_outputs(tr: Tracer, args, kwargs, result):
    trace = kwargs.get("trace", args[4] if len(args) > 4 else None)
    if trace is not None:
        tr.add("quantizer.bias_correct.layer_outputs",
               sum(1 for k in trace if k.startswith("linear:")))


def _streamsim_report(tr: Tracer, args, kwargs, result):
    tr.captured["streamsim"].append(result)


HOOKS = {
    "signal_pipeline.preprocess_recording": (None, _preprocess_counts),
    "container.Container.save": (None, _bytes("container.bytes_written")),
    "container.Container.load": (None, _bytes("container.bytes_read")),
    "engine.int8_matmul": (None, _int8_macs),
    "engine.ternary_matmul": (None, _ternary_macs),
    "engine.engine_forward": (_engine_trace_in, _engine_out),
    "quantizer.bias_correct": (None, _bias_corrected),
    "quantizer.fake_quant_forward": (None, _fq_layer_outputs),
    "streamsim.run_default": (None, _streamsim_report),
}


def targets() -> list[Target]:
    names = [f"{m}.{f}" for m, funcs in SELF_TIMED.items() for f in funcs]
    names.append("signal_pipeline.preprocess_recording")
    out = []
    for name in names:
        module, qualname = name.split(".", 1)
        before, after = HOOKS.get(name, (None, None))
        out.append(Target(module, qualname, before, after))
    return out


# -- per-layer metrics ---------------------------------------------------------

def per_layer_metrics(tracer: Tracer, iterations: int, extra: dict) -> tuple[dict, list]:
    """Metric name -> value per traced iteration, and the names that could
    not be measured because their function is gone.

    ``extra`` carries the values the workload measures itself: image.bytes,
    streamsim.chunks and the trace.* figures.
    """
    n = max(1, iterations)
    stats = by_name(tracer.spans)
    values: dict[str, float] = {}
    for module, funcs in SELF_TIMED.items():
        for f in funcs:
            ns = stats.get(f"{module}.{f}")
            values[f"{module}.{f}.self_s"] = ns.self_s / n if ns else 0.0
    for name in CALL_COUNTED:
        ns = stats.get(name)
        values[f"{name}.calls"] = ns.calls / n if ns else 0
    for key in ("signal_pipeline.samples_in", "signal_pipeline.windows_out",
                "container.bytes_written", "container.bytes_read",
                "engine.int8_matmul.macs", "engine.ternary_matmul.macs",
                "engine.scan_sat_events", "engine.scan_steps"):
        values[key] = tracer.counts.get(key, 0) / n
    outputs = tracer.counts.get("quantizer.bias_correct.layer_outputs", 0)
    used = tracer.counts.get("quantizer.bias_correct.outputs_used", 0)
    values["quantizer.bias_correct.useful_ratio"] = used / outputs if outputs else 0.0
    ef = stats.get("engine.engine_forward")
    values["engine.window_s_p50"] = statistics.median(ef.durations) if ef else 0.0
    for c in CLI_COMMANDS:
        ns = stats.get(f"cli.{c}")
        values[f"cli.{c}.self_s"] = ns.self_s / n if ns else 0.0
    values.update(streamsim_counts(tracer.captured.get("streamsim", [])))
    values.update(extra)

    missing = [name for name, _, _ in PER_LAYER
               if _source(name) in tracer.missing or name not in values]
    return {name: values[name] for name, _, _ in PER_LAYER if name not in missing}, missing


SOURCES = {
    "signal_pipeline.samples_in": "signal_pipeline.preprocess_recording",
    "signal_pipeline.windows_out": "signal_pipeline.preprocess_recording",
    "container.bytes_written": "container.Container.save",
    "container.bytes_read": "container.Container.load",
    "engine.scan_sat_events": "engine.engine_forward",
    "engine.scan_steps": "engine.engine_forward",
    "engine.window_s_p50": "engine.engine_forward",
}


def _source(metric: str) -> str:
    """The wrapped function a metric is measured at."""
    if metric in SOURCES:
        return SOURCES[metric]
    if metric.startswith("streamsim."):
        return "streamsim.run_default"
    return metric.rsplit(".", 1)[0]


def streamsim_counts(reports) -> dict:
    """Simulated counts of the last ``run_default`` report, under
    streamsim's layer and sub-op names; zero when the workload never runs the
    simulator. The caller checks that every report of the run is identical."""
    if not reports:
        out = {"streamsim.total_cycles": 0.0, "streamsim.overlap_pct": 0.0,
               "streamsim.bytes_moved": 0}
        out.update({f"streamsim.layer.{n}.cycles": 0.0 for n in STREAMSIM_LAYERS})
        out.update({f"streamsim.sub_op.{n}.cycles": 0.0 for n in STREAMSIM_SUB_OPS})
        return out
    cr = reports[-1]
    out = {}
    out["streamsim.total_cycles"] = cr.total_cycles
    out["streamsim.overlap_pct"] = cr.overlap_pct
    out["streamsim.bytes_moved"] = sum(r.bytes_moved for r in cr.layers)
    for r in cr.layers:
        out[f"streamsim.layer.{r.name}.cycles"] = r.cycles
    for s in cr.sub_ops:
        key = f"streamsim.sub_op.{s.name}.cycles"
        out[key] = out.get(key, 0.0) + s.cycles
    return out


def streamsim_digest(report) -> tuple:
    """Everything a CycleReport states, for exact comparison between runs."""
    return (report.total_cycles, report.total_macs, report.latency_s, report.energy_j,
            report.overlap_pct,
            tuple((r.name, r.cycles, r.macs, r.overlap_pct, r.bytes_moved)
                  for r in report.layers),
            tuple((s.layer, s.name, s.cycles, s.macs) for s in report.sub_ops))
