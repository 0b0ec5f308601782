"""The benchmark's three closed-loop workloads and their correctness gates.

One client, this process, runs each operation only after the previous one
has finished. Operations are in-process calls of ``femba.cli.main`` and, for
the integer oracle, which has no CLI command, direct calls of
``reference.reference_int_forward``. The toolchain sees only the files
generated here from the workload seed.

Why each workload exists (see README.md for the layer table):

- ``ingest``: ``femba preprocess`` on multi-minute recordings. Only
  signal_pipeline and the container writer work; engine and quantizer do
  nothing, so their optimisations must leave it unchanged.
- ``deploy_w8a8``: quantize, simulate, and run the integer, fake-quant and
  float paths plus the oracle on preprocessed windows. The dense INT8 path
  dominates.
- ``deploy_w2a8``: the same in ternary mode without the float path, plus one
  ``quantize --bias-correct``: on-the-fly unpacking, ternarize/pack weight
  work and the bias-correction defect.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from femba import cli
from femba import container as ct
from femba import image as im
from femba import model as fm
from femba import reference as ref
from femba import streamsim as ss

RATE_HZ = 512.0
WINDOW_SECONDS = 5.0  # one 1280-sample window at the pipeline's 256 Hz
INGEST_RECORDINGS = 2
INGEST_SECONDS = 240.0
CALIB_WINDOWS = 2
INFER_WINDOWS = 1


def synthetic_eeg(seconds: float, fs: float, seed: int) -> np.ndarray:
    """22 channels of 1/f noise plus a 10 Hz rhythm and 60 Hz mains, in
    microvolts: the recipe of scripts/make_demo_assets.py, kept here so the
    inputs stay fixed while the scripts evolve."""
    rng = np.random.default_rng(seed)
    n = int(seconds * fs)
    t = np.arange(n) / fs
    spectrum = rng.normal(size=(22, n // 2 + 1)) + 1j * rng.normal(size=(22, n // 2 + 1))
    spectrum /= np.maximum(np.fft.rfftfreq(n, 1 / fs), 1.0)
    x = np.fft.irfft(spectrum, n=n, axis=-1)
    x *= 10.0 / x.std(axis=-1, keepdims=True)
    x += 3.0 * np.sin(2 * np.pi * 10.0 * t + rng.uniform(0, 2 * np.pi, (22, 1)))
    x += 2.0 * np.sin(2 * np.pi * 60.0 * t)
    return x


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    windows: int = 0
    error: str = ""
    probe: bool = False  # runs a known defect; kept out of iteration_s


class GateError(Exception):
    """A correctness gate failed; the run records no numbers."""


@dataclass
class Runner:
    """Runs and times operations one at a time and checks that every output
    is byte-identical to the first output under the same key."""
    workdir: str
    tracer: object = None
    ops: list = field(default_factory=list)
    iteration_ops: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def timed(self, name: str, fn, windows: int = 0, probe: bool = False,
              span: str | None = None):
        gc.collect()
        ctx = self.tracer.operation(span or name) if self.tracer else nullcontext()
        result, error = None, ""
        with ctx:
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception:
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
        op = Op(name, seconds, not error, windows, error, probe)
        self.ops.append(op)
        self.iteration_ops.append(op)
        if not op.ok and not probe:
            raise GateError(f"{name} failed:\n{error}")
        return op, result

    def cli(self, name: str, argv: list, windows: int = 0, probe: bool = False) -> Op:
        err = io.StringIO()

        def call():
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = cli.main([str(a) for a in argv])
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")

        op, _ = self.timed(name, call, windows, probe, span=f"cli.{argv[0]}")
        return op

    def same(self, key: str, path: str):
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        first = self.digests.setdefault(key, digest)
        if digest != first:
            raise GateError(f"{key}: {os.path.basename(path)} differs from its first output")


def sample(values, unit: str) -> dict:
    return {"values": list(values), "unit": unit}


class Ingest:
    name = "ingest"
    primary = "preprocess"

    def __init__(self, seed: int, runner: Runner):
        self.runner = runner
        self.signals = [synthetic_eeg(INGEST_SECONDS, RATE_HZ, seed * 16 + k)
                        for k in range(INGEST_RECORDINGS)]
        self.combos = [(k, scope) for scope in ("window", "recording")
                       for k in range(INGEST_RECORDINGS)]
        self.windows = int(INGEST_SECONDS / WINDOW_SECONDS)
        self.checked = set()

    def setup(self):
        r = self.runner
        for k, x in enumerate(self.signals):
            ct.write_recording(r.path(f"rec{k}.sig"), x, RATE_HZ)

    def check_setup(self):
        for k in range(len(self.signals)):
            self.runner.same(f"rec{k}", self.runner.path(f"rec{k}.sig"))

    def iteration(self, i: int):
        r = self.runner
        k, scope = self.combos[i % len(self.combos)]
        out = r.path(f"win{k}.{scope}.fmbc")
        r.cli("preprocess", ["preprocess", r.path(f"rec{k}.sig"), out, "--iqr-scope", scope],
              windows=self.windows)
        r.same(f"win{k}.{scope}", out)
        r.same(f"win{k}.{scope}.jsonl", out + ".jsonl")
        if (k, scope) not in self.checked:
            self._check_windows(out, scope)
            self.checked.add((k, scope))

    def _check_windows(self, path: str, scope: str):
        w = cli.load_windows(path)
        if w.shape != (self.windows, 22, 1280) or not np.all(np.isfinite(w)):
            raise GateError(f"{path}: windows of shape {w.shape}, "
                            f"expected ({self.windows}, 22, 1280) and finite")
        with open(path + ".jsonl") as f:
            prov = [json.loads(line) for line in f]
        if scope == "window":
            q = np.percentile(w, [25.0, 75.0], axis=-1)
            if not (np.allclose(q[0], 0.0, atol=1e-4) and np.allclose(q[1], 1.0, atol=1e-4)):
                raise GateError(f"{path}: window quartiles are not mapped to 0 and 1")
        elif any(p["q_lower"] != prov[0]["q_lower"] for p in prov):
            raise GateError(f"{path}: recording-scope windows use different quartiles")

    def finish(self) -> dict:
        return {"image.bytes": 0, "streamsim.chunks": 0}

    def metrics(self, ops) -> dict:
        pp = [o.windows / o.seconds for o in ops if o.name == "preprocess"]
        return {"preprocess_windows_per_s": sample(pp, "windows/s")}


class Deploy:
    primary = "infer_int"

    def __init__(self, mode: str, cfg: fm.ModelConfig, seed: int, runner: Runner):
        self.name = f"deploy_{mode}"
        self.mode, self.cfg, self.runner = mode, cfg, runner
        self.weights = fm.init_weights(cfg, seed=seed)
        self.calib = synthetic_eeg(CALIB_WINDOWS * WINDOW_SECONDS, RATE_HZ, seed * 16 + 1)
        self.eval = synthetic_eeg(INFER_WINDOWS * WINDOW_SECONDS, RATE_HZ, seed * 16 + 2)
        r = runner
        paths = {"fp32": r.path("ckpt.fmbc"), mode: r.path("image.fmbc"),
                 "fakequant": r.path("image.fmbc")}
        self.manifests = {}
        for kind in ("int", "fakequant", "fp32"):
            m = mode if kind == "int" else kind
            manifest = {"model": paths[m], "mode": m, "windows": r.path("eval.fmbc"),
                        "output": r.path(f"logits.{kind}.fmbc")}
            self.manifests[kind] = r.path(f"manifest.{kind}.json")
            with open(self.manifests[kind], "w") as f:
                json.dump(manifest, f)

    def setup(self):
        r, cfg = self.runner, self.cfg
        im.save_checkpoint(self.weights, cfg, r.path("ckpt.fmbc"))
        for name, x in (("calib", self.calib), ("eval", self.eval)):
            ct.write_recording(r.path(f"{name}.sig"), x, RATE_HZ)
            with redirect_stdout(io.StringIO()):
                code = cli.main(["preprocess", r.path(f"{name}.sig"), r.path(f"{name}.fmbc")])
            if code != 0:
                raise GateError(f"set-up: femba preprocess of {name}.sig exited {code}")
            if (cfg.n_channels, cfg.n_samples) != (22, 1280):
                w = cli.load_windows(r.path(f"{name}.fmbc"))
                cli.save_windows(r.path(f"{name}.fmbc"),
                                 list(w[:, :cfg.n_channels, :cfg.n_samples]))

    def check_setup(self):
        for name in ("ckpt", "calib", "eval"):
            self.runner.same(name, self.runner.path(f"{name}.fmbc"))

    def iteration(self, i: int):
        r, mode, n = self.runner, self.mode, INFER_WINDOWS
        calib = ["--calib", r.path("calib.fmbc")]
        r.cli("quantize", ["quantize", r.path("ckpt.fmbc"), r.path("image.fmbc"),
                           "--mode", mode] + calib)
        r.same("image", r.path("image.fmbc"))
        if mode == "w2a8":
            op = r.cli("quantize_bc", ["quantize", r.path("ckpt.fmbc"), r.path("image_bc.fmbc"),
                                       "--mode", mode, "--bias-correct"] + calib, probe=True)
            if op.ok:
                r.same("image_bc", r.path("image_bc.fmbc"))
        r.cli("bench", ["bench", "--mode", mode, "--format", "csv", "--out", r.path("bench.csv")])
        r.same("bench.csv", r.path("bench.csv"))
        for kind in ("int", "fakequant", "fp32"):
            if kind == "fp32" and mode != "w8a8":
                continue
            r.cli(f"infer_{kind}", ["infer", self.manifests[kind]], windows=n)
            r.same(f"logits.{kind}", r.path(f"logits.{kind}.fmbc"))
        traced = r.tracer is not None
        ref_traces = [{} if traced else None for _ in range(n)]

        def oracle():
            img = im.load_image(r.path("image.fmbc"))
            windows = cli.load_windows(r.path("eval.fmbc"))
            return [ref.reference_int_forward(img, w, trace=t)[0]
                    for w, t in zip(windows, ref_traces)]

        _, logits = r.timed("reference", oracle, windows=n, span="bench.reference")
        self._check_logits(logits)
        if traced:
            self._check_traces(r.tracer.captured.pop("engine_traces", []), ref_traces)

    def _check_logits(self, ref_logits):
        got = ct.Container.load(self.runner.path("logits.int.fmbc")).array("logits_i32")
        want = np.asarray(ref_logits, dtype=np.int64)
        if got.shape != want.shape or not np.array_equal(got.astype(np.int64), want):
            raise GateError("femba infer logits_i32 differ from reference_int_forward")

    @staticmethod
    def _check_traces(engine_traces, ref_traces):
        if len(engine_traces) != len(ref_traces):
            raise GateError(f"{len(engine_traces)} engine traces for {len(ref_traces)} windows")
        for j, (et, rt) in enumerate(zip(engine_traces, ref_traces)):
            if et is None or et.keys() != rt.keys():
                raise GateError(f"window {j}: engine and reference trace different taps")
            for tap in rt:
                if not np.array_equal(et[tap], rt[tap]):
                    raise GateError(f"window {j}: engine differs from reference at {tap!r}")

    def finish(self) -> dict:
        """Check the simulated counts against ``femba bench --format json`` and
        return the per-layer values measured here."""
        r, mode = self.runner, self.mode
        code = cli.main(["bench", "--mode", mode, "--format", "json",
                         "--out", r.path("bench.json")])
        if code != 0:
            raise GateError(f"femba bench --format json exited {code}")
        with open(r.path("bench.json")) as f:
            cycles = json.load(f)["cycles"]
        with open(r.path("bench.csv")) as f:
            total = next(line for line in f if line.startswith("total,"))
        if float(total.split(",")[3]) != round(cycles, 6):
            raise GateError(f"bench csv total {total.strip()!r} != json cycles {cycles}")
        plan = ss.plan_stream(ss.model_layers(fm.ModelConfig(), ss.CostModel(), mode),
                              ss.MemHierarchy())
        return {"image.bytes": os.path.getsize(r.path("image.fmbc")),
                "streamsim.chunks": len(plan.chunks)}

    def metrics(self, ops) -> dict:
        def rate(name):
            return [o.windows / o.seconds for o in ops if o.name == name and o.ok]

        out = {"quantize_s": sample([o.seconds for o in ops if o.name == "quantize"], "s/image")}
        if self.mode == "w2a8":
            out["quantize_bc_s"] = sample(
                [o.seconds for o in ops if o.name == "quantize_bc" and o.ok], "s/image")
        out["int_windows_per_s"] = sample(rate("infer_int"), "windows/s")
        out["fakequant_windows_per_s"] = sample(rate("infer_fakequant"), "windows/s")
        if self.mode == "w8a8":
            out["float_windows_per_s"] = sample(rate("infer_fp32"), "windows/s")
        out["reference_windows_per_s"] = sample(rate("reference"), "windows/s")
        return out


def make(name: str, seed: int, runner: Runner, cfg: fm.ModelConfig | None = None):
    """The workload ``name``; ``cfg`` is the model shape of the deploy workloads,
    the full FEMBA-Tiny shape unless a test passes a smaller one."""
    if name == "ingest":
        return Ingest(seed, runner)
    if name in ("deploy_w8a8", "deploy_w2a8"):
        return Deploy(name.split("_")[1], cfg or fm.ModelConfig(), seed, runner)
    raise ValueError(f"unknown workload {name!r}")
