"""Command-line surface binding the pipeline together.

Subcommands: preprocess (recording -> window archive), quantize (checkpoint
-> deployment image), infer (float / fake-quant / integer inference), bench
(streaming cycle simulation), losses (objective evaluation on tensor files).

Exit codes: 0 success, 2 input format error or a file that cannot be read
or written, 3 configuration/shape error, 4 planning error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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


# fakequant runs any model in float arithmetic: a checkpoint as is, an
# image through its float view
INFER_MODES = (*qz.MODES, "fakequant")


class CliConfigError(ValueError):
    pass


def save_windows(path, windows: list[np.ndarray]):
    c = ct.Container()
    if windows:
        arr = np.stack([np.asarray(w, dtype=np.float32) for w in windows])
    else:
        arr = np.zeros((0, sigp.WINDOW_CHANNELS, sigp.WINDOW_SAMPLES), dtype=np.float32)
    c.add("windows", ct.DT_F32, arr)
    c.save(path)


def _read_f32(c: ct.Container, name: str, path) -> np.ndarray:
    """Entry ``name`` of the container read from ``path``, as float64 of its
    dims; FormatError naming it unless it is stored as f32."""
    e = c.get(name)
    if e.dtype != ct.DT_F32:
        raise ct.FormatError(f"{path}: entry {name!r} is {ct.DTYPES[e.dtype].name}, expected f32")
    return e.data.reshape(e.dims).astype(np.float64)


def load_windows(path) -> np.ndarray:
    """The windows of an archive; FormatError unless they are f32, as
    `save_windows` writes them, and every value is finite."""
    windows = _read_f32(ct.Container.load(path), "windows", path)
    if not np.all(np.isfinite(windows)):
        raise ct.FormatError(f"{path}: window archive holds NaN or infinite values")
    return windows


def _check_window_shape(windows: np.ndarray, cfg: fm.ModelConfig, source: str):
    """CliConfigError naming ``source`` unless every window fits ``cfg``."""
    if windows.shape[:1] != (0,) and windows.shape[1:] != (cfg.n_channels, cfg.n_samples):
        raise CliConfigError(f"{source} windows of shape {windows.shape[1:]} do not fit "
                             f"the model's ({cfg.n_channels}, {cfg.n_samples})")


def read_any_recording(path) -> tuple[np.ndarray, float]:
    """Accept either the raw FEMB-SIG stream or a tensor container with
    'samples' (channels x n) and 'rate' (one value) entries, both f32. The
    rate is finite and positive in both, and every sample finite."""
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic != ct.MAGIC:
        samples, rate = ct.read_recording(path)
    else:
        c = ct.Container.load(path)
        samples, rate = _read_f32(c, "samples", path), _read_f32(c, "rate", path).reshape(-1)
        if samples.ndim != 2 or rate.size != 1 or not 0 < rate[0] < np.inf:
            raise ct.FormatError(f"recording of samples {samples.shape} and rate {rate.tolist()}"
                                 ": expected (channels, n) samples and one finite positive rate")
        rate = float(rate[0])
    if not np.all(np.isfinite(samples)):
        raise ct.FormatError(f"{path}: recording holds NaN or infinite samples")
    return samples, rate


def cmd_preprocess(args) -> int:
    # the filters' scipy.signal, loaded before the recording's arrays exist,
    # so the import's memory does not add to theirs at the peak
    import scipy.signal  # noqa: F401
    samples, rate = read_any_recording(args.input)
    kw = {}
    if args.config:
        with open(args.config) as f:
            text = f.read()
        try:
            [kw] = ss.config_values(ss.parse_config_text(text), sigp.PreprocessConfig)
        except ss.PlanError as exc:  # a config error here, not a planning one
            raise CliConfigError(f"preprocess config: {exc}") from exc
    if args.iqr_scope:
        kw["iqr_scope"] = args.iqr_scope
    cfg = sigp.PreprocessConfig(**kw)
    windows, provenance = sigp.preprocess_recording(sigp.RawRecording(samples, rate), cfg)
    save_windows(args.output, [w.data for w in windows])
    with open(args.output + ".jsonl", "w") as f:
        for recd in provenance:
            f.write(json.dumps(recd, sort_keys=True) + "\n")
    print(f"wrote {len(windows)} windows to {args.output}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    if not 0 < args.clip_pct <= 100:
        raise CliConfigError(f"--clip-pct {args.clip_pct} must be in (0, 100]")
    if args.mode == "fp32":
        # byte-preserving repack of the float checkpoint, once checked
        c = ct.Container.load(args.checkpoint)
        im.load_checkpoint(c)
        c.save(args.output)
        print(im.image_summary(c))
        return EXIT_OK
    # from the path, so the float container is freed before calibration
    weights, cfg = im.load_checkpoint(args.checkpoint)
    if args.calib is None:
        raise CliConfigError(f"mode {args.mode!r} requires --calib windows")
    calib = load_windows(args.calib)
    if not len(calib):
        raise CliConfigError("calibration archive is empty")
    _check_window_shape(calib, cfg, "--calib")
    art = qz.quantize_model(weights, cfg, args.mode, list(calib),
                            clip_pct=args.clip_pct,
                            run_bias_correct=args.bias_correct)
    c = im.build_image(cfg, art)
    im.load_image(c)  # no image that femba infer would reject reaches the disk
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
    if not isinstance(manifest, dict):
        raise ct.FormatError(f"manifest is a JSON {type(manifest).__name__}, not an object")
    for key in ("model", "mode", "windows", "output"):
        if key not in manifest:
            raise CliConfigError(f"manifest missing {key!r}")
    for key in ("model", "mode", "windows", "output", "dump"):
        if key in manifest and not isinstance(manifest[key], str):
            raise CliConfigError(f"manifest {key} must be a string, "
                                 f"not {type(manifest[key]).__name__}")
    if manifest["mode"] not in INFER_MODES:
        raise CliConfigError(f"manifest mode must be one of {INFER_MODES}")
    for key in ("model", "windows"):
        if not os.path.exists(manifest[key]):
            raise CliConfigError(f"manifest {key} file {manifest[key]!r} does not exist")
    return manifest


def cmd_infer(args) -> int:
    manifest = _load_manifest(args.manifest)
    mode = manifest["mode"]
    integer = mode not in ("fp32", "fakequant")
    if args.dump and not integer:
        raise CliConfigError(f"--dump writes integer traces, and mode {mode!r} has none")
    if args.dump and "dump" not in manifest:
        raise CliConfigError("--dump needs the manifest's 'dump' path")

    model_c = ct.Container.load(manifest["model"])
    _, model_mode = im.read_config(model_c)
    if mode == "fp32" or (mode == "fakequant" and model_mode == "fp32"):
        if model_mode != "fp32":
            raise CliConfigError(f"mode {mode!r} needs a float checkpoint, got {model_mode!r}")
        weights, cfg = im.load_checkpoint(model_c)
    else:
        img = im.load_image(model_c)
        cfg = img.cfg
        if integer and img.mode != mode:
            raise CliConfigError(f"manifest mode {mode!r} does not match image mode {img.mode!r}")

    windows = load_windows(manifest["windows"])
    _check_window_shape(windows, cfg, "the manifest's")

    out = ct.Container()
    dump = ct.Container() if args.dump else None
    if not integer:
        if model_mode == "fp32":
            logits = [fm.forward(w, weights, cfg) for w in windows]
        else:
            logits = [ref.fakequant_float_from_image(img, w) for w in windows]
        out.add("logits", ct.DT_F32, np.asarray(logits, dtype=np.float32))
    else:
        results = []
        stats = eng.EngineStats()
        for j, w in enumerate(windows):
            trace = {} if dump is not None else None
            li, lf, window_stats = eng.engine_forward(img, w, trace=trace)
            stats += window_stats
            results.append((li, lf))
            if dump is not None:
                for tap, arr in trace.items():
                    dt = ct.DT_I32 if arr.dtype == np.int32 else ct.DT_I8
                    dump.add(f"w{j}.{tap}", dt, arr)
        out.add("logits", ct.DT_F32, np.asarray([lf for _, lf in results], dtype=np.float32))
        out.add("logits_i32", ct.DT_I32,
                np.asarray([li for li, _ in results], dtype=np.int32))
        print(f"scan saturations: {stats.scan_sat_events} of {stats.scan_steps} "
              f"steps (rate {stats.saturation_rate:.3e})")

    out.save(manifest["output"])
    if dump is not None:
        dump.save(manifest["dump"])
    print(f"wrote logits for {len(windows)} windows to {manifest['output']}")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = ""
    if args.config:
        with open(args.config) as f:
            config = f.read()
    hier, cm, mode = ss.config_from_mapping(ss.parse_config_text(config))
    text = ss.report(ss.run_default(fm.ModelConfig(), cm, hier, args.mode or mode), args.format)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _tensor(args, flag: str) -> np.ndarray:
    """The tensor file of ``--flag`` as float64; FormatError naming the flag
    unless every value is finite."""
    path = getattr(args, flag)
    t = ct.Container.load(path).array("tensor").astype(np.float64)
    if not np.all(np.isfinite(t)):
        raise ct.FormatError(f"--{flag} {path}: tensor holds NaN or infinite values")
    return t


# the tensor flags each loss reads, besides the optional --mask; the first
# holds the batch
_LOSS_INPUTS = {"smooth_l1": ("pred", "target"), "info_nce": ("anchor", "positive", "negatives"),
                "focal": ("probs", "labels")}


def cmd_losses(args) -> int:
    missing = [f"--{k}" for k in _LOSS_INPUTS[args.loss] if getattr(args, k) is None]
    if missing:
        raise CliConfigError(f"--loss {args.loss} requires {', '.join(missing)}")
    t = {k: _tensor(args, k) for k in _LOSS_INPUTS[args.loss]}
    batch = _LOSS_INPUTS[args.loss][0]
    if t[batch].size == 0:
        raise CliConfigError(f"--{batch} is empty: a loss over no samples is undefined")
    outc = ct.Container()
    if args.loss == "smooth_l1":
        if t["pred"].shape != t["target"].shape:
            raise CliConfigError(f"shape mismatch {t['pred'].shape} vs {t['target'].shape}")
        mask = _tensor(args, "mask").astype(bool) if args.mask else None
        if mask is not None and mask.shape != t["pred"].shape:
            raise CliConfigError(f"--mask {mask.shape} must match --pred {t['pred'].shape}")
        loss, grad = obj.smooth_l1(t["pred"], t["target"], args.beta, mask)
        outc.add("grad_pred", ct.DT_F32, grad.astype(np.float32))
    elif args.loss == "info_nce":
        anchor, negatives = t["anchor"], t["negatives"]
        if anchor.shape != t["positive"].shape or anchor.ndim not in (1, 2):
            raise CliConfigError(f"--anchor and --positive must be (B, D) or (D,) alike, "
                                 f"got {anchor.shape} and {t['positive'].shape}")
        bsz, dim = np.atleast_2d(anchor).shape
        if not (negatives.ndim in (2, 3) and negatives.shape[-1] == dim
                and negatives.shape[:-2] in ((), (bsz,))):
            raise CliConfigError(f"--negatives of shape {negatives.shape}, expected "
                                 f"(K, {dim}) or ({bsz}, K, {dim})")
        for flag, x in t.items():
            if np.any(np.linalg.norm(x, axis=-1) == 0):
                raise CliConfigError(f"--{flag} holds a zero-norm embedding")
        loss, grads = obj.info_nce(anchor, t["positive"], negatives, args.tau)
        for key, g in grads.items():
            outc.add(f"grad_{key}", ct.DT_F32, g.astype(np.float32))
    else:  # focal
        probs, labels = t["probs"], t["labels"]
        if probs.ndim != 2 or labels.shape != probs.shape[:1]:
            raise CliConfigError(f"--labels of shape {labels.shape} must hold one label per "
                                 f"row of --probs {probs.shape}")
        if not np.all((labels == np.round(labels)) & (labels >= 0) & (labels < probs.shape[1])):
            raise CliConfigError(f"--labels must be integers in [0, {probs.shape[1]})")
        loss, grad = obj.focal_loss(probs, labels.astype(np.int64), args.alpha, args.gamma)
        outc.add("grad_probs", ct.DT_F32, grad.astype(np.float32))
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
    sp.add_argument("--iqr-scope", choices=sigp.IQR_SCOPES, default=None)
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
                    help="also write the integer engine's per-layer activations "
                         "(manifest 'dump' path)")
    sp.set_defaults(func=cmd_infer)

    sp = sub.add_parser("bench", help="memory-streaming cycle simulation")
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--mode", choices=qz.MODES, default=None,
                    help="weight mode (default: the config's mode, else w8a8)")
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
    except (ct.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ss.PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN
    except (CliConfigError, qz.CalibrationError, eng.EngineConfigError,
            sigp.FilterSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
