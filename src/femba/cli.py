"""Command-line surface binding the pipeline together.

Subcommands: preprocess (recording -> window archive), quantize (checkpoint
-> deployment image), infer (float / fake-quant / integer inference), bench
(streaming cycle simulation), losses (objective evaluation on tensor files).

Exit codes: 0 success, 2 input format error, 3 configuration/shape error,
4 planning error. FEMBA_THREADS overrides the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import container as ct
from . import engine as eng
from . import image as im
from . import model as fm
from . import objectives as obj
from . import quantizer as qz
from . import reference as ref
from . import signal_pipeline as sigp
from . import streamsim as ss

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_CONFIG = 3
EXIT_PLAN = 4


class CliConfigError(ValueError):
    pass


def _workers() -> int:
    return eng.worker_count(None)


def save_windows(path, windows: list[np.ndarray]):
    c = ct.Container()
    if windows:
        arr = np.stack([np.asarray(w, dtype=np.float32) for w in windows])
    else:
        arr = np.zeros((0, sigp.WINDOW_CHANNELS, sigp.WINDOW_SAMPLES), dtype=np.float32)
    c.add("windows", ct.DT_F32, arr)
    c.save(path)


def load_windows(path) -> np.ndarray:
    c = ct.Container.load(path)
    return c.array("windows").astype(np.float64)


def read_any_recording(path) -> tuple[np.ndarray, float]:
    """Accept either the raw FEMB-SIG stream or a tensor container with
    'samples' (channels x n, f32) and 'rate' entries."""
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == ct.MAGIC:
        c = ct.Container.load(path)
        return c.array("samples").astype(np.float64), float(c.array("rate")[0])
    return ct.read_recording(path)


def cmd_preprocess(args) -> int:
    samples, rate = read_any_recording(args.input)
    kw = {}
    if args.config:
        with open(args.config) as f:
            cfgmap = ss.parse_config_text(f.read())
        for field in ("bandpass_lo_hz", "bandpass_hi_hz", "notch_hz", "notch_q",
                      "target_rate_hz", "iqr_scope"):
            if field in cfgmap:
                kw[field] = cfgmap[field]
    kw["iqr_scope"] = args.iqr_scope if args.iqr_scope else kw.get("iqr_scope", "window")
    cfg = sigp.PreprocessConfig(**kw)
    windows, provenance = sigp.preprocess_recording(sigp.RawRecording(samples, rate), cfg)
    save_windows(args.output, [w.data for w in windows])
    with open(args.output + ".jsonl", "w") as f:
        for recd in provenance:
            f.write(json.dumps(recd, sort_keys=True) + "\n")
    print(f"wrote {len(windows)} windows to {args.output}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    if args.mode == "fp32":
        # byte-preserving repack of the float checkpoint
        c = ct.Container.load(args.checkpoint)
        c.save(args.output)
        print(im.image_summary(c))
        return EXIT_OK
    weights, cfg = im.load_checkpoint(args.checkpoint)
    if args.calib is None:
        raise CliConfigError(f"mode {args.mode!r} requires --calib windows")
    calib = list(load_windows(args.calib))
    if not calib:
        raise CliConfigError("calibration archive is empty")
    art = qz.quantize_model(weights, cfg, args.mode, calib,
                            clip_pct=args.clip_pct,
                            run_bias_correct=args.bias_correct)
    c = im.build_image(cfg, art)
    c.save(args.output)
    print(f"{'tensor':<26} {'bits':>4} {'scale min':>12} {'scale max':>12}")
    for name, qt in art.weights_q.items():
        print(f"{name:<26} {qt.bits:>4} {qt.scales.min():>12.5g} {qt.scales.max():>12.5g}")
    print(im.image_summary(c))
    size = os.path.getsize(args.output)
    print(f"image mode {args.mode}: {size} bytes")
    return EXIT_OK


def _load_manifest(path) -> dict:
    try:
        with open(path) as f:
            manifest = json.load(f)
    except json.JSONDecodeError as exc:
        raise ct.FormatError(f"manifest is not valid JSON: {exc}") from exc
    for key in ("model", "mode", "windows", "output"):
        if key not in manifest:
            raise CliConfigError(f"manifest missing {key!r}")
    if manifest["mode"] not in qz.MODES:
        raise CliConfigError(f"manifest mode must be one of {qz.MODES}")
    for key in ("model", "windows"):
        if not os.path.exists(manifest[key]):
            raise CliConfigError(f"manifest {key} file {manifest[key]!r} does not exist")
    return manifest


def cmd_infer(args) -> int:
    manifest = _load_manifest(args.manifest)
    mode = manifest["mode"]
    windows = load_windows(manifest["windows"])
    dump_path = manifest.get("dump") if args.dump else None
    model_c = ct.Container.load(manifest["model"])
    _, model_mode = im._config_from_vec(model_c.array("config"), model_c.array("config_f"))

    out = ct.Container()
    dump = ct.Container() if dump_path else None

    if mode == "fp32" or (mode == "fakequant" and model_mode == "fp32"):
        if model_mode != "fp32":
            raise CliConfigError(f"mode {mode!r} needs a float checkpoint, got {model_mode!r}")
        weights, cfg = im.load_checkpoint(manifest["model"])
        with ThreadPoolExecutor(max_workers=_workers()) as pool:
            logits = list(pool.map(lambda w: fm.forward(w, weights, cfg), windows))
        out.add("logits", ct.DT_F32, np.asarray(logits, dtype=np.float32))
    elif mode == "fakequant":
        img = im.load_image(model_c)
        with ThreadPoolExecutor(max_workers=_workers()) as pool:
            logits = list(pool.map(lambda w: ref.fakequant_float_from_image(img, w), windows))
        out.add("logits", ct.DT_F32, np.asarray(logits, dtype=np.float32))
    else:
        img = im.load_image(model_c)
        if img.mode != mode:
            raise CliConfigError(f"manifest mode {mode!r} does not match image mode {img.mode!r}")
        results = []
        for j, w in enumerate(windows):
            trace = {} if dump is not None else None
            li, lf, _ = eng.engine_forward(img, w, trace=trace)
            results.append((li, lf))
            if dump is not None:
                for tap, arr in trace.items():
                    dt = ct.DT_I32 if arr.dtype == np.int32 else ct.DT_I8
                    dump.add(f"w{j}.{tap}", dt, arr)
        out.add("logits", ct.DT_F32, np.asarray([lf for _, lf in results], dtype=np.float32))
        out.add("logits_i32", ct.DT_I32,
                np.asarray([li for li, _ in results], dtype=np.int32))

    out.save(manifest["output"])
    if dump is not None:
        dump.save(dump_path)
    print(f"wrote logits for {len(windows)} windows to {manifest['output']}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.config:
        with open(args.config) as f:
            hier, cm, mode = ss.config_from_mapping(ss.parse_config_text(f.read()))
    else:
        hier, cm, mode = ss.MemHierarchy(), ss.CostModel(), args.mode
    cr = ss.run_default(fm.ModelConfig(), cm, hier, mode)
    if args.format == "json":
        text = json.dumps({"cycles": cr.total_cycles,
                           "seconds": cr.latency_s,
                           "millijoules": cr.energy_j * 1e3}, sort_keys=True) + "\n"
    else:
        text = ss.report(cr, args.format)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _tensor(path, name="tensor") -> np.ndarray:
    c = ct.Container.load(path)
    return c.array(name).astype(np.float64)


def cmd_losses(args) -> int:
    outc = ct.Container()
    if args.loss == "smooth_l1":
        pred = _tensor(args.pred)
        target = _tensor(args.target)
        if pred.shape != target.shape:
            raise CliConfigError(f"shape mismatch {pred.shape} vs {target.shape}")
        mask = None
        if args.mask:
            mask = ct.Container.load(args.mask).array("tensor").astype(bool)
        loss, grad = obj.smooth_l1(pred, target, args.beta, mask)
        outc.add("grad_pred", ct.DT_F32, grad.astype(np.float32))
    elif args.loss == "info_nce":
        anchor = _tensor(args.anchor)
        positive = _tensor(args.positive)
        negatives = _tensor(args.negatives)
        if anchor.shape != positive.shape:
            raise CliConfigError(f"shape mismatch {anchor.shape} vs {positive.shape}")
        loss, grads = obj.info_nce(anchor, positive, negatives, args.tau)
        for key, g in grads.items():
            outc.add(f"grad_{key}", ct.DT_F32, g.astype(np.float32))
    elif args.loss == "focal":
        probs = _tensor(args.probs)
        labels = ct.Container.load(args.labels).array("tensor").astype(np.int64)
        if probs.shape[0] != labels.shape[0]:
            raise CliConfigError("probs/labels batch mismatch")
        loss, grad = obj.focal_loss(probs, labels, args.alpha, args.gamma)
        outc.add("grad_probs", ct.DT_F32, grad.astype(np.float32))
    else:
        raise CliConfigError(f"unknown loss {args.loss!r}")
    print(f"{loss:.9f}")
    if args.out:
        outc.save(args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="femba")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("preprocess", help="recording -> normalized window archive")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--config", help="key = value overrides for the filter chain")
    sp.add_argument("--iqr-scope", choices=("window", "recording"), default=None)
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("quantize", help="float checkpoint -> deployment image")
    sp.add_argument("checkpoint")
    sp.add_argument("output")
    sp.add_argument("--mode", choices=qz.MODES, default="w8a8")
    sp.add_argument("--calib", help="window archive for activation calibration")
    sp.add_argument("--clip-pct", type=float, default=qz.DEFAULT_CLIP_PCT)
    sp.add_argument("--bias-correct", action="store_true")
    sp.set_defaults(func=cmd_quantize)

    sp = sub.add_parser("infer", help="run inference per a JSON manifest")
    sp.add_argument("manifest")
    sp.add_argument("--dump", action="store_true",
                    help="also write per-layer activations (manifest 'dump' path)")
    sp.set_defaults(func=cmd_infer)

    sp = sub.add_parser("bench", help="memory-streaming cycle simulation")
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--mode", choices=("fp32", "w8a8", "w4a8", "w2a8"), default="w8a8")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("losses", help="evaluate a loss on serialized tensors")
    sp.add_argument("--loss", required=True, choices=("smooth_l1", "info_nce", "focal"))
    sp.add_argument("--pred")
    sp.add_argument("--target")
    sp.add_argument("--mask")
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--anchor")
    sp.add_argument("--positive")
    sp.add_argument("--negatives")
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--probs")
    sp.add_argument("--labels")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_losses)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ct.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (FileNotFoundError, PermissionError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ss.PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN
    except (CliConfigError, qz.CalibrationError, eng.EngineConfigError,
            sigp.FilterSpecError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
