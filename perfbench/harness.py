"""Command line, closed loop, statistics and result line of the benchmark.

    python3 perfbench/run.py --workload deploy_w8a8 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

This module imports only the standard library at load time, so that the
first import of ``femba`` can be timed as part of ``setup_s``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOADS = ("ingest", "deploy_w8a8", "deploy_w2a8")
END_TO_END = (("setup_s", "s", "lower"), ("iteration_s", "s", "lower"),
              ("primary_windows_per_s", "windows/s", "higher"), ("peak_rss_mb", "MB", "lower"))
TOOLCHAIN_MODULES = ("cli", "container", "engine", "image", "model", "quantizer",
                     "reference", "signal_pipeline", "streamsim")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def summary(values) -> dict | None:
    """Median, quartiles and sample count."""
    v = sorted(values)
    if not v:
        return None
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(v)}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through its C API."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "femba").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "FEMBA_THREADS": os.environ.get("FEMBA_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed,
    }


def run_loop(wl, runner, seconds: float, tracer, modules, targets):
    """Closed loop: one iteration after another while the next one, judged by
    the longer of the last two, still ends within ``seconds``. With a tracer,
    the first iteration warms up, then traced (odd) and untraced (even)
    iterations alternate, at least one of each."""
    iterations = []  # (traced, wall seconds, ops)
    start = time.perf_counter()
    while True:
        i = len(iterations)
        traced = tracer is not None and i % 2 == 1
        runner.tracer = tracer if traced else None
        runner.iteration_ops = []
        t0 = time.perf_counter()
        if traced:
            tracer.install(modules, targets)
        try:
            wl.iteration(i)
        finally:
            if traced:
                tracer.uninstall()
        iterations.append((traced, time.perf_counter() - t0, runner.iteration_ops))
        runner.tracer = None
        elapsed = time.perf_counter() - start
        longest = max(wall for _, wall, _ in iterations[-2:])
        if elapsed + longest > seconds and (tracer is None or len(iterations) >= 3):
            return iterations


def loop_figures(wl, iterations) -> dict:
    """iteration_s and primary_windows_per_s samples of some iterations."""
    return {
        "iteration_s": [sum(o.seconds for o in ops if not o.probe) for _, _, ops in iterations],
        "primary_windows_per_s": [o.windows / o.seconds for _, _, ops in iterations
                                  for o in ops if o.name == wl.primary and o.ok],
    }


def table_lines(table, attempted: int, failed: int, errors: dict) -> list[str]:
    """Every metric with unit, median, quartiles and sample count, then the
    failed operations."""
    lines = [f"{'metric':<28} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}"]
    for k, unit, s in table:
        if s is None:
            lines.append(f"{k:<28} {unit:<10} {'no value':>12} {'':>12} {'':>12} {0:>4}")
        else:
            lines.append(f"{k:<28} {unit:<10} {s['median']:>12.6g} {s['q1']:>12.6g} "
                         f"{s['q3']:>12.6g} {s['n']:>4}")
    lines.append(f"{'failed_ratio':<28} {'ratio':<10} {failed / attempted:>12.6g} "
                 f"  failed {failed} of {attempted} operations attempted")
    return lines + [f"  failed x{n}: {e}" for e, n in errors.items()]


def median_of(values) -> float:
    return statistics.median(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 cfg=None) -> tuple[dict, list[str], dict]:
    """One benchmark run, at the model shape ``cfg`` (default: full). Returns
    the result object, the report lines and the full record."""
    from . import layers, workloads
    from .tracing import Tracer

    modules = {m: importlib.import_module(f"femba.{m}") for m in TOOLCHAIN_MODULES}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    runner = workloads.Runner(str(workdir))
    tracer = Tracer() if trace else None
    try:
        wl = workloads.make(name, seed, runner, cfg)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            wl.check_setup()
        iterations = run_loop(wl, runner, seconds, tracer, modules, layers.targets())
        extra = wl.finish()
        if tracer is not None:
            reports = tracer.captured.get("streamsim", [])
            digests = {layers.streamsim_digest(r) for r in reports}
            if len(digests) > 1:
                raise workloads.GateError("streamsim reports differ between bench calls")
    except workloads.GateError as exc:
        return ({"correct": False, "attempted": len(runner.ops),
                 "failed": sum(not o.ok for o in runner.ops), "metrics": {}},
                [f"correctness gate failed: {exc}"], {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = runner.ops
    attempted, failed = len(ops), sum(not o.ok for o in ops)
    untraced = [it for it in iterations[1 if trace else 0:] if not it[0]]
    figures = loop_figures(wl, untraced)
    samples = {
        "setup_s": [import_s + s for s in setup_times],
        "iteration_s": figures["iteration_s"],
        "primary_windows_per_s": figures["primary_windows_per_s"],
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {k: median_of(v) for k, v in samples.items()}
    values["peak_rss_mb"] = peak_rss_mb

    table = [(k, u, summary(samples[k])) for k, u, _ in END_TO_END if k in samples]
    table += [(k, s["unit"], summary(s["values"])) for k, s in wl.metrics(
        [o for _, _, it_ops in untraced for o in it_ops]).items()]
    table.append(("peak_rss_mb", "MB", summary([peak_rss_mb])))
    errors: dict[str, int] = {}
    for o in ops:
        if not o.ok:
            key = f"{o.name}: {o.error.strip().splitlines()[-1]}"
            errors[key] = errors.get(key, 0) + 1
    lines = [f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}",
             f"iterations: {len(iterations)}, of which {len(untraced)} untraced and "
             f"{sum(t for t, _, _ in iterations)} traced are counted; "
             f"set-up: import {import_s:.4f} s + median of {SETUP_REPEATS} preparations"]
    lines += table_lines(table, attempted, failed, errors)

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "samples": samples, "table": {k: {"unit": u, **(s or {})} for k, u, s in table},
              "attempted": attempted, "failed": failed, "errors": errors}
    if tracer is None:
        metrics = {k: {"value": values[k], "unit": u} for k, u, _ in END_TO_END}
    else:
        traced = [it for it in iterations if it[0]]
        t_fig = loop_figures(wl, traced)
        n_traced = len(traced)
        cli_ops = [o for _, _, it_ops in traced for o in it_ops if o.name != "reference"]
        extra.update({
            "cli.ops_attempted": len(cli_ops) / n_traced,
            "cli.ops_failed": sum(not o.ok for o in cli_ops) / n_traced,
            "trace.iteration_s": median_of(t_fig["iteration_s"]),
            "trace.untraced.iteration_s": values["iteration_s"],
            "trace.overhead.iteration_s": median_of(t_fig["iteration_s"]) - values["iteration_s"],
            "trace.overhead.primary_windows_per_s":
                median_of(t_fig["primary_windows_per_s"]) - values["primary_windows_per_s"],
            "trace.spans": len(tracer.spans) / n_traced,
        })
        per_layer, missing = layers.per_layer_metrics(tracer, n_traced, extra)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
        lines.append(f"per-layer metrics, per traced iteration ({n_traced} traced):")
        lines += [f"  {k:<48} {units[k]:<10} {v:>16.6g}" for k, v in per_layer.items()]
        if missing:
            lines.append(f"missing metrics (function renamed or removed): {', '.join(missing)}")
        record["missing"] = missing
        record["spans"] = [vars(s) for s in tracer.spans]
    record["metrics"] = metrics
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines, record


def run_all(args) -> int:
    """Every workload in turn, each in its own process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] if proc.returncode == 0 else []
        if not last:
            code = proc.returncode or 1
            combined["correct"] = False
            continue
        res = json.loads(last[0])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "femba" / "__init__.py").is_file():
        print(f"error: no toolchain source under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    for m in ("femba",) + tuple(f"femba.{m}" for m in TOOLCHAIN_MODULES):
        importlib.import_module(m)
    import_s = time.perf_counter() - t0

    env = environment(args.seed)
    result, lines, record = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace), import_s)
    record["env"] = env
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    if record:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record))
        print(f"full record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
