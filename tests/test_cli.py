import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from femba import cli
from femba import container as ct
from femba import engine as eng
from femba import image as im
from femba import model as fm
from femba import reference as ref
from femba import streamsim as ss

from conftest import TINY


@pytest.fixture()
def tiny_checkpoint(tmp_path, tiny_weights):
    path = tmp_path / "model.fmbc"
    im.save_checkpoint(tiny_weights, TINY, path)
    return str(path)


@pytest.fixture()
def tiny_archive(tmp_path, tiny_windows):
    path = tmp_path / "wins.fmbc"
    cli.save_windows(str(path), [w.astype(np.float32) for w in tiny_windows])
    return str(path)


def run(*argv):
    return cli.main([str(a) for a in argv])


# entry edits that leave a checkpoint of the wrong dims or dtype
_MISSHAPEN = {"narrowed": lambda a: (ct.DT_F32, a[:, :1]),
              "row_dropped": lambda a: (ct.DT_F32, a[:-1]),
              "i8": lambda a: (ct.DT_I8, np.clip(np.rint(64 * a), -127, 127).astype(np.int8))}


def bad_checkpoint(checkpoint, out, entry, value):
    """``checkpoint`` written to ``out`` with ``entry`` edited: its last
    value set to the number ``value``, or the `_MISSHAPEN` edit so named."""
    c = ct.Container.load(checkpoint)
    a = c.array(entry).copy()
    if isinstance(value, str):
        dtype, a = _MISSHAPEN[value](a)
    else:
        dtype, a.reshape(-1)[-1] = ct.DT_F32, value
    c.add(entry, dtype, a)
    c.save(out)
    return out


class TestPreprocess:
    def test_recording_to_windows(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = tmp_path / "rec.sig"
        ct.write_recording(rec, rng.normal(0, 15, (22, 3845)), 256.0)
        out = tmp_path / "wins.fmbc"
        assert run("preprocess", rec, out) == 0
        wins = cli.load_windows(out)
        assert wins.shape == (3, 22, 1280)
        sidecar = (tmp_path / "wins.fmbc.jsonl").read_text().splitlines()
        assert len(sidecar) == 3
        rec0 = json.loads(sidecar[0])
        assert rec0["source_offset"] == 0 and len(rec0["q_lower"]) == 22

    def test_empty_recording(self, tmp_path):
        rec = tmp_path / "rec.sig"
        ct.write_recording(rec, np.zeros((22, 0)), 256.0)
        out = tmp_path / "wins.fmbc"
        assert run("preprocess", rec, out) == 0
        assert cli.load_windows(out).shape[0] == 0

    def test_corrupt_magic_exit_2(self, tmp_path):
        rec = tmp_path / "rec.sig"
        rec.write_bytes(b"XXXXXXXX" + b"\x00" * 64)
        assert run("preprocess", rec, tmp_path / "o.fmbc") == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run("preprocess", tmp_path / "none.sig", tmp_path / "o.fmbc") == 2

    def test_container_recording_input(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = rng.normal(0, 10, (22, 1280)).astype(np.float32)
        c = ct.Container()
        c.add("samples", ct.DT_F32, samples)
        c.add("rate", ct.DT_F32, np.array([256.0], dtype=np.float32))
        rec = tmp_path / "rec.fmbc"
        c.save(rec)
        out = tmp_path / "w.fmbc"
        assert run("preprocess", rec, out) == 0
        assert cli.load_windows(out).shape == (1, 22, 1280)

    def test_config_file_overrides(self, tmp_path):
        rng = np.random.default_rng(2)
        rec = tmp_path / "rec.sig"
        ct.write_recording(rec, rng.normal(0, 10, (22, 1280)), 256.0)
        cfgf = tmp_path / "pp.cfg"
        cfgf.write_text("notch_hz = 50.0\niqr_scope = recording\n")
        out = tmp_path / "w.fmbc"
        assert run("preprocess", rec, out, "--config", cfgf) == 0
        assert cli.load_windows(out).shape == (1, 22, 1280)
        assert run("preprocess", rec, tmp_path / "d.fmbc") == 0
        assert not np.array_equal(cli.load_windows(out), cli.load_windows(tmp_path / "d.fmbc"))

    @pytest.mark.parametrize("case", ["empty rate", "two rates", "1-D samples",
                                      "sig NaN rate", "sig NaN sample", "fmbc inf sample"])
    def test_malformed_recording_exit_2(self, tmp_path, capsys, case):
        samples = np.random.default_rng(1).normal(0, 10, (22, 1280)).astype(np.float32)
        if case.endswith("sample"):
            samples[3, 700] = np.nan if case.startswith("sig") else np.inf
        rec = tmp_path / "rec.fmbc"
        if case.startswith("sig"):
            rec = tmp_path / "rec.sig"
            ct.write_recording(rec, samples, float("nan") if case == "sig NaN rate" else 256.0)
        else:
            rate = {"empty rate": [], "two rates": [256.0, 128.0]}.get(case, [256.0])
            c = ct.Container()
            c.add("samples", ct.DT_F32, samples[0] if case == "1-D samples" else samples)
            c.add("rate", ct.DT_F32, np.array(rate, dtype=np.float32))
            c.save(rec)
        assert run("preprocess", rec, tmp_path / "w.fmbc") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "w.fmbc").exists()

    @pytest.mark.parametrize("line", ["bandpas_lo_hz = 3.0", "target_rate_hz = 128",
                                      "notch_hz = abc", "iqr_scope = banana", "notch_hz 50",
                                      "notch_q = 0.0", "notch_q = -5.0"])
    def test_unknown_config_key_exit_3(self, tmp_path, capsys, line):
        rec = tmp_path / "rec.sig"
        ct.write_recording(rec, np.random.default_rng(2).normal(0, 10, (22, 1280)), 256.0)
        cfgf = tmp_path / "pp.cfg"
        cfgf.write_text(line + "\n")
        assert run("preprocess", rec, tmp_path / "w.fmbc", "--config", cfgf) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(line.split()[0]) in err


_UNCLOSED_FILE_FAILS = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


class TestConfigFileClosed:
    """An unclosed --config file raises ResourceWarning, an error here."""

    @_UNCLOSED_FILE_FAILS
    def test_preprocess(self, tmp_path):
        rec = tmp_path / "rec.sig"
        ct.write_recording(rec, np.random.default_rng(2).normal(0, 10, (22, 1280)), 256.0)
        cfgf = tmp_path / "pp.cfg"
        cfgf.write_text("notch_hz = 50.0\n")
        assert run("preprocess", rec, tmp_path / "w.fmbc", "--config", cfgf) == 0

    @_UNCLOSED_FILE_FAILS
    def test_bench(self, tmp_path):
        cfgf = tmp_path / "bench.cfg"
        cfgf.write_text("l2_bandwidth_bytes_per_cycle = 1.0\n")
        assert run("bench", "--config", cfgf, "--out", tmp_path / "r.txt") == 0


class TestQuantize:
    def test_fp32_byte_preserving_repack(self, tmp_path, tiny_checkpoint):
        out = tmp_path / "repack.fmbc"
        assert run("quantize", tiny_checkpoint, out, "--mode", "fp32") == 0
        assert out.read_bytes() == Path(tiny_checkpoint).read_bytes()

    @pytest.mark.parametrize("source", ["w8a8 image", "window archive", "narrowed a_log"])
    def test_fp32_repack_of_no_checkpoint_exit_2(self, tmp_path, tiny_checkpoint,
                                                 tiny_archive, source):
        bad = tmp_path / "bad.fmbc"
        if source == "w8a8 image":
            assert run("quantize", tiny_checkpoint, bad, "--mode", "w8a8",
                       "--calib", tiny_archive) == 0
        elif source == "window archive":
            bad = tiny_archive
        else:
            bad_checkpoint(tiny_checkpoint, bad, "blocks.0.bwd.a_log", "narrowed")
        out = tmp_path / "repack.fmbc"
        assert run("quantize", bad, out, "--mode", "fp32") == 2
        assert not out.exists()

    def test_w8a8_and_w2a8_images(self, tmp_path, tiny_checkpoint, tiny_archive):
        out8 = tmp_path / "i8.fmbc"
        out2 = tmp_path / "i2.fmbc"
        assert run("quantize", tiny_checkpoint, out8, "--mode", "w8a8",
                   "--calib", tiny_archive) == 0
        assert run("quantize", tiny_checkpoint, out2, "--mode", "w2a8",
                   "--calib", tiny_archive) == 0
        img = im.load_image(str(out8))
        assert img.mode == "w8a8"
        assert out2.stat().st_size < out8.stat().st_size

    def test_fakequant_is_no_image_mode(self, tmp_path, capsys, tiny_checkpoint, tiny_archive):
        with pytest.raises(SystemExit) as exc:
            run("quantize", tiny_checkpoint, tmp_path / "x.fmbc", "--mode", "fakequant",
                "--calib", tiny_archive)
        assert exc.value.code == 2
        assert "invalid choice: 'fakequant'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,value", [("blocks.0.fwd.dt_bias", np.inf),
                                             ("head.bias", np.nan),
                                             ("pos_embed", -np.inf),
                                             ("blocks.0.bwd.a_log", "narrowed"),
                                             ("blocks.0.fwd.in_proj", "row_dropped"),
                                             ("head.weight", "i8")])
    def test_non_finite_checkpoint_exit_2(self, tmp_path, tiny_checkpoint, tiny_archive,
                                          entry, value):
        """A checkpoint entry that is not finite, or not f32 of its dims, is
        a format error for quantize and for fp32 infer alike."""
        bad = bad_checkpoint(tiny_checkpoint, tmp_path / "bad.fmbc", entry, value)
        assert run("quantize", bad, tmp_path / "x.fmbc", "--mode", "w8a8",
                   "--calib", tiny_archive) == 2
        m = write_manifest(tmp_path, model=str(bad), mode="fp32", windows=tiny_archive,
                           output=str(tmp_path / "l.fmbc"))
        assert run("infer", m) == 2

    def test_missing_calib_exit_3(self, tmp_path, tiny_checkpoint):
        assert run("quantize", tiny_checkpoint, tmp_path / "x.fmbc",
                   "--mode", "w8a8") == 3

    def test_mismatched_shapes_exit_3(self, tmp_path, capsys, tiny_checkpoint):
        bad = tmp_path / "bad.fmbc"
        c = ct.Container()
        c.add("windows", ct.DT_F32, np.zeros((2, 5, 7), dtype=np.float32))
        c.save(bad)
        assert run("quantize", tiny_checkpoint, tmp_path / "x.fmbc",
                   "--mode", "w8a8", "--calib", bad) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--calib" in err
        assert str((5, 7)) in err and str((TINY.n_channels, TINY.n_samples)) in err

    @pytest.mark.parametrize("pct", ["150", "nan", "0", "-1"])
    def test_clip_pct_outside_range_exit_3(self, tmp_path, capsys, tiny_checkpoint,
                                           tiny_archive, pct):
        out = tmp_path / "x.fmbc"
        assert run("quantize", tiny_checkpoint, out, "--mode", "w8a8",
                   "--calib", tiny_archive, "--clip-pct", pct) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--clip-pct" in err and "Traceback" not in err
        assert not out.exists()


def write_manifest(tmp_path, **kw):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(kw))
    return str(path)


class TestInfer:
    @pytest.fixture()
    def image_w8(self, tmp_path, tiny_checkpoint, tiny_archive):
        out = tmp_path / "img8.fmbc"
        assert run("quantize", tiny_checkpoint, out, "--mode", "w8a8",
                   "--calib", tiny_archive) == 0
        return str(out)

    def test_same_manifest_twice_byte_identical(self, tmp_path, image_w8, tiny_archive):
        out1, out2 = tmp_path / "l1.fmbc", tmp_path / "l2.fmbc"
        m1 = write_manifest(tmp_path, model=image_w8, mode="w8a8",
                            windows=tiny_archive, output=str(out1))
        assert run("infer", m1) == 0
        m2 = write_manifest(tmp_path, model=image_w8, mode="w8a8",
                            windows=tiny_archive, output=str(out2))
        assert run("infer", m2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fp32_equals_fakequant_passthrough(self, tmp_path, tiny_checkpoint,
                                               tiny_archive):
        outs = {}
        for mode in ("fp32", "fakequant"):
            out = tmp_path / f"{mode}.fmbc"
            m = write_manifest(tmp_path, model=tiny_checkpoint, mode=mode,
                               windows=tiny_archive, output=str(out))
            assert run("infer", m) == 0
            outs[mode] = ct.Container.load(out).array("logits")
        np.testing.assert_array_equal(outs["fp32"], outs["fakequant"])

    def test_fakequant_on_quantized_image(self, tmp_path, image_w8, tiny_archive):
        out = tmp_path / "fq.fmbc"
        m = write_manifest(tmp_path, model=image_w8, mode="fakequant",
                           windows=tiny_archive, output=str(out))
        assert run("infer", m) == 0
        logits = ct.Container.load(out).array("logits")
        assert logits.shape[0] == 6 and np.all(np.isfinite(logits))

    def test_fakequant_unfolds_the_image_once(self, tmp_path, monkeypatch, image_w8,
                                              tiny_windows):
        """Three windows of fakequant inference unfold the image into its
        float view once, and write the logits of the image's float walk."""
        wins = tmp_path / "three.fmbc"
        cli.save_windows(str(wins), [w.astype(np.float32) for w in tiny_windows[:3]])
        img = im.load_image(image_w8)
        want = np.asarray([ref.fakequant_float_from_image(img, w)
                           for w in cli.load_windows(str(wins))], dtype=np.float32)
        builds = []
        grids = im.requant_grids

        def counted(cfg, exp):
            builds.append(cfg)
            return grids(cfg, exp)

        monkeypatch.setattr(im, "requant_grids", counted)
        out = tmp_path / "fq.fmbc"
        m = write_manifest(tmp_path, model=image_w8, mode="fakequant",
                           windows=str(wins), output=str(out))
        assert run("infer", m) == 0
        assert len(builds) == 1
        assert ct.Container.load(out).array("logits").tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["fp32", "fakequant-checkpoint", "fakequant-image",
                                      "w8a8"])
    def test_windows_run_in_the_calling_thread(self, tmp_path, monkeypatch, tiny_checkpoint,
                                               image_w8, tiny_windows, case):
        """Every mode runs its windows one after the other, in window order,
        in the thread that called femba infer."""
        mode, _, model = case.partition("-")
        model = image_w8 if model == "image" or mode == "w8a8" else tiny_checkpoint
        wins = tmp_path / "three.fmbc"
        cli.save_windows(str(wins), [w.astype(np.float32) for w in tiny_windows[:3]])
        calls = []

        def spy(module, name, window_arg):
            real = getattr(module, name)

            def called(*args, **kw):
                calls.append((threading.get_ident(), args[window_arg]))
                return real(*args, **kw)
            monkeypatch.setattr(module, name, called)

        spy(fm, "forward", 0)
        spy(ref, "fakequant_float_from_image", 1)
        spy(eng, "engine_forward", 1)
        m = write_manifest(tmp_path, model=model, mode=mode, windows=str(wins),
                           output=str(tmp_path / "l.fmbc"))
        assert run("infer", m) == 0
        want = cli.load_windows(str(wins))
        assert [ident for ident, _ in calls] == [threading.get_ident()] * len(want)
        for (_, got), w in zip(calls, want):
            np.testing.assert_array_equal(got, w)

    @pytest.mark.parametrize("mode", ["w8a8", "w2a8", "fakequant", "fp32"])
    def test_window_shape_mismatch_exit_3(self, tmp_path, capsys, tiny_checkpoint,
                                          tiny_archive, tiny_windows, mode):
        """Windows of the model's size but transposed dims exit 3, naming
        both shapes, before any window runs."""
        model = tiny_checkpoint
        if mode != "fp32":
            model = str(tmp_path / "img.fmbc")
            assert run("quantize", tiny_checkpoint, model, "--mode",
                       "w2a8" if mode == "w2a8" else "w8a8", "--calib", tiny_archive) == 0
        wins = tmp_path / "transposed.fmbc"
        cli.save_windows(str(wins), [w.T.astype(np.float32) for w in tiny_windows])
        out = tmp_path / "l.fmbc"
        m = write_manifest(tmp_path, model=model, mode=mode, windows=str(wins),
                           output=str(out))
        capsys.readouterr()
        assert run("infer", m) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str((TINY.n_samples, TINY.n_channels)) in err
        assert str((TINY.n_channels, TINY.n_samples)) in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["w8a8", "fakequant", "fp32"])
    def test_empty_archive_writes_empty_logits(self, tmp_path, tiny_checkpoint, image_w8,
                                               mode):
        """An archive of no windows, whose stored window shape is the full
        model's, not TINY's, writes empty logits and exits 0."""
        wins = tmp_path / "empty.fmbc"
        cli.save_windows(str(wins), [])
        out = tmp_path / "l.fmbc"
        m = write_manifest(tmp_path, model=tiny_checkpoint if mode == "fp32" else image_w8,
                           mode=mode, windows=str(wins), output=str(out))
        assert run("infer", m) == 0
        assert ct.Container.load(out).array("logits").size == 0

    @pytest.mark.parametrize("text", ["7", "[]"], ids=["number", "list"])
    def test_manifest_not_an_object_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        assert run("infer", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("value", [0, ["x"]], ids=["int", "list"])
    @pytest.mark.parametrize("key", ["model", "mode", "windows", "output", "dump"])
    def test_manifest_value_not_a_string_exit_3(self, tmp_path, capsys, tiny_checkpoint,
                                                tiny_archive, key, value):
        """Each path and the mode must be a JSON string: an int would name a
        file descriptor (``"windows": 0`` is stdin)."""
        kw = dict(model=tiny_checkpoint, mode="fp32", windows=tiny_archive,
                  output=str(tmp_path / "l.fmbc"), dump=str(tmp_path / "d.fmbc"))
        kw[key] = value
        assert run("infer", write_manifest(tmp_path, **kw)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {key} must be a string")
        assert not (tmp_path / "l.fmbc").exists()

    def test_dump_without_path_exit_3(self, tmp_path, capsys, image_w8, tiny_archive):
        out = tmp_path / "l.fmbc"
        m = write_manifest(tmp_path, model=image_w8, mode="w8a8",
                           windows=tiny_archive, output=str(out))
        assert run("infer", m, "--dump") == 3
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["fp32", "fakequant"])
    def test_dump_of_float_mode_exit_3(self, tmp_path, capsys, tiny_checkpoint, tiny_archive,
                                       mode):
        """The dump holds integer traces, which the float modes do not make."""
        dump = tmp_path / "dump.fmbc"
        m = write_manifest(tmp_path, model=tiny_checkpoint, mode=mode, windows=tiny_archive,
                           output=str(tmp_path / "l.fmbc"), dump=str(dump))
        assert run("infer", m, "--dump") == 3
        assert capsys.readouterr().err.startswith("error:")
        assert not dump.exists()

    def test_mode_mismatch_exit_3(self, tmp_path, image_w8, tiny_archive):
        m = write_manifest(tmp_path, model=image_w8, mode="w2a8",
                           windows=tiny_archive, output=str(tmp_path / "x.fmbc"))
        assert run("infer", m) == 3

    def test_missing_model_exit_3(self, tmp_path, tiny_archive):
        m = write_manifest(tmp_path, model=str(tmp_path / "none.fmbc"), mode="w8a8",
                           windows=tiny_archive, output=str(tmp_path / "x.fmbc"))
        assert run("infer", m) == 3

    def test_scan_stats_line(self, tmp_path, capsys, image_w8, tiny_archive):
        """Integer inference prints the scan statistics summed over windows."""
        m = write_manifest(tmp_path, model=image_w8, mode="w8a8",
                           windows=tiny_archive, output=str(tmp_path / "l.fmbc"))
        assert run("infer", m) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("scan saturations:")]
        assert len(lines) == 1
        sat, steps, rate = re.fullmatch(
            r"scan saturations: (\d+) of (\d+) steps \(rate (\S+)\)", lines[0]).groups()
        img = im.load_image(image_w8)
        want = eng.EngineStats()
        for w in cli.load_windows(tiny_archive):
            want += eng.engine_forward(img, w)[2]
        assert (int(sat), int(steps)) == (want.scan_sat_events, want.scan_steps)
        assert int(steps) == 6 * TINY.n_blocks * 2 * TINY.n_tokens * TINY.d_inner * TINY.d_state
        assert float(rate) == pytest.approx(want.saturation_rate, rel=1e-3, abs=1e-12)

    def test_dump_layers(self, tmp_path, image_w8, tiny_archive):
        dump = tmp_path / "dump.fmbc"
        out = tmp_path / "l.fmbc"
        m = write_manifest(tmp_path, model=image_w8, mode="w8a8",
                           windows=tiny_archive, output=str(out), dump=str(dump))
        assert run("infer", m, "--dump") == 0
        d = ct.Container.load(dump)
        assert "w0.input" in d.entries and "w0.logits_i32" in d.entries
        assert "w0.blocks.0.fwd.y" in d.entries


class TestNonFiniteWindows:
    """A window archive holding NaN or an infinity is a format error."""

    @pytest.fixture(params=[np.nan, np.inf], ids=["nan", "inf"])
    def bad_archive(self, request, tmp_path, tiny_windows):
        windows = [w.astype(np.float32) for w in tiny_windows]
        windows[1][2, 5] = request.param
        path = tmp_path / "bad.fmbc"
        cli.save_windows(str(path), windows)
        return str(path)

    @pytest.mark.parametrize("mode", ["w8a8", "fakequant", "fp32"])
    def test_infer_exit_2(self, tmp_path, capsys, tiny_checkpoint, tiny_archive,
                          bad_archive, mode):
        model = tiny_checkpoint
        if mode != "fp32":
            model = str(tmp_path / "img8.fmbc")
            assert run("quantize", tiny_checkpoint, model, "--mode", "w8a8",
                       "--calib", tiny_archive) == 0
        m = write_manifest(tmp_path, model=model, mode=mode, windows=bad_archive,
                           output=str(tmp_path / "out.fmbc"))
        capsys.readouterr()
        assert run("infer", m) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_quantize_calib_exit_2(self, tmp_path, capsys, tiny_checkpoint, bad_archive):
        assert run("quantize", tiny_checkpoint, tmp_path / "x.fmbc", "--mode", "w8a8",
                   "--calib", bad_archive) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestWindowDtype:
    """A window archive is read as `save_windows` writes it: windows of any
    dtype but f32 are a format error, not integer codes run as values."""

    @pytest.fixture(params=[ct.DT_I8, ct.DT_Q15, ct.DT_I32], ids=["i8", "q15", "i32"])
    def int_archive(self, request, tmp_path, tiny_windows):
        c = ct.Container()
        c.add("windows", request.param, np.clip(np.rint(16 * np.stack(tiny_windows)), -127, 127)
              .astype(ct.DTYPES[request.param].np))
        path = tmp_path / "int.fmbc"
        c.save(path)
        return str(path)

    @pytest.mark.parametrize("command", ["quantize", "infer"])
    def test_exit_2(self, tmp_path, capsys, tiny_checkpoint, int_archive, command):
        if command == "quantize":
            argv = ["quantize", tiny_checkpoint, tmp_path / "x.fmbc", "--mode", "w8a8",
                    "--calib", int_archive]
        else:
            argv = ["infer", write_manifest(tmp_path, model=tiny_checkpoint, mode="fp32",
                                            windows=int_archive,
                                            output=str(tmp_path / "out.fmbc"))]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "expected f32" in err and "Traceback" not in err


class TestCorruptImage:
    """A malformed deployment image exits 2 with a message, not a traceback."""

    @pytest.fixture()
    def image_w2(self, tmp_path, tiny_checkpoint, tiny_archive):
        out = tmp_path / "img2.fmbc"
        assert run("quantize", tiny_checkpoint, out, "--mode", "w2a8",
                   "--calib", tiny_archive) == 0
        return ct.Container.load(out)

    def infer_exit(self, tmp_path, capsys, image, archive, corrupt=lambda blob: blob,
                   names=""):
        """femba infer's exit code on ``image``, whose error line names ``names``."""
        path = tmp_path / "bad.fmbc"
        path.write_bytes(corrupt(image.tobytes()))
        m = write_manifest(tmp_path, model=str(path), mode="w2a8",
                           windows=archive, output=str(tmp_path / "l.fmbc"))
        code = run("infer", m)
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error:") and names in err
        return code

    def test_short_act_exponents_exit_2(self, tmp_path, capsys, image_w2, tiny_archive):
        image_w2.add("act_exponents", ct.DT_I8, image_w2.array("act_exponents")[:-1])
        assert self.infer_exit(tmp_path, capsys, image_w2, tiny_archive) == 2

    def test_ternary_field_3_exit_2(self, tmp_path, capsys, image_w2, tiny_archive):
        e = image_w2.get("blocks.0.bwd.out_proj.q")
        e.data = e.data.copy()
        e.data[0] |= np.uint32(3)
        assert self.infer_exit(tmp_path, capsys, image_w2, tiny_archive) == 2

    def test_short_lut_exit_2(self, tmp_path, capsys, image_w2, tiny_archive):
        image_w2.add("luts.exp", ct.DT_Q15, image_w2.array("luts.exp")[:512])
        assert self.infer_exit(tmp_path, capsys, image_w2, tiny_archive) == 2

    @pytest.mark.parametrize("entry,dtype,edit", [
        ("act_exponents", ct.DT_F32, lambda a: a + 0.9),
        ("luts.silu", ct.DT_I32, lambda a: np.append(a[:-1], 40000)),
        ("luts.exp.meta", ct.DT_F32, lambda a: a),
        ("config", ct.DT_F32, lambda a: a + 0.7 * (np.arange(a.size) == 0)),  # d_model + 0.7
        ("config_f", ct.DT_I32, lambda a: np.array([1, 2])),
    ], ids=["act_exponents f32", "luts.silu i32", "luts.exp.meta f32", "config f32",
            "config_f i32"])
    def test_mistyped_entry_exit_2(self, tmp_path, capsys, image_w2, tiny_archive,
                                   entry, dtype, edit):
        """An entry of another dtype than its writer gives it is a format
        error, also where its values would fit the right dtype or wrap."""
        values = edit(image_w2.array(entry).astype(np.float64))
        image_w2.add(entry, dtype, values.astype(ct.DTYPES[dtype].np))
        assert self.infer_exit(tmp_path, capsys, image_w2, tiny_archive,
                               names=f"entry {entry!r}") == 2

    @pytest.mark.parametrize("entry,index,value", [
        ("config", 11, 7),      # fusion index past the fusion modes
        ("config", 11, 2),      # the first fusion index past the modes
        ("config", 12, 9),      # mode index past the modes
        ("config", 12, 4),      # fakequant, no longer an image mode
        ("config", 12, -1),
        ("config", 0, 9),       # d_model against the entry dims
        ("config", 4, 2**31 - 1),  # n_blocks
        ("config_f", 1, np.inf),
        ("config_f", 1, np.nan),
        ("act_exponents", fm.quant_points(TINY).index("blocks.0.fwd.u"), 70),
        ("tokenizer.k", 0, 63),
        ("blocks.0.fwd.in_proj.k", 0, 63),
        ("pool.k", 0, 63),
    ])
    def test_malformed_entry_exits_cleanly(self, tmp_path, capsys, image_w2, tiny_archive,
                                           entry, index, value):
        e = image_w2.get(entry)
        flat = e.data.reshape(-1).copy()
        flat[index] = value
        e.data = flat
        assert self.infer_exit(tmp_path, capsys, image_w2, tiny_archive) in (2, 3)

    def test_duplicate_entry_name_exit_2(self, tmp_path, capsys, image_w2, tiny_archive):
        # a second config_f, whose payload would otherwise replace the first
        image_w2.add("config_g", ct.DT_F32, np.array([1e-3, 5.0], dtype=np.float32))

        def corrupt(blob):
            assert blob.count(b"config_g") == 1
            return blob.replace(b"config_g", b"config_f")
        assert self.infer_exit(tmp_path, capsys, image_w2, tiny_archive, corrupt) == 2

    def test_wrapped_dims_exit_2(self, tmp_path, capsys, image_w2, tiny_archive):
        # empty, and dims whose product wraps to 0 in int64
        image_w2.entries["act_exponents"] = ct.Entry(
            "act_exponents", ct.DT_I8, (65536,) * 4, np.zeros(0, dtype=np.int8))
        assert self.infer_exit(tmp_path, capsys, image_w2, tiny_archive) == 2

    def test_bad_entry_name_exit_2(self, tmp_path, capsys, image_w2, tiny_archive):
        def corrupt(blob):
            assert blob[12:18] == b"config"  # the first entry name
            return blob[:12] + b"\xff" + blob[13:]
        assert self.infer_exit(tmp_path, capsys, image_w2, tiny_archive, corrupt) == 2


class TestBench:
    def test_totals_near_device(self, tmp_path, capsys):
        assert run("bench", "--format", "json") == 0
        totals = json.loads(capsys.readouterr().out)
        assert abs(totals["cycles"] - 629.4e6) / 629.4e6 < 0.03
        assert abs(totals["seconds"] - 1.70) / 1.70 < 0.03
        assert abs(totals["millijoules"] - 75.0) / 75.0 < 0.03

    def test_text_rows_in_order(self, capsys):
        assert run("bench") == 0
        text = capsys.readouterr().out
        order = ["patch_embed", "pos_embed", "mamba_blocks.0", "mamba_blocks.1",
                 "global_pool", "classifier"]
        positions = [text.index(name) for name in order]
        assert positions == sorted(positions)

    def test_zero_bandwidth_overlap(self, tmp_path):
        cfgf = tmp_path / "bench.cfg"
        cfgf.write_text("l2_bandwidth_bytes_per_cycle = 1e-9\n")
        out = tmp_path / "r.csv"
        assert run("bench", "--config", cfgf, "--format", "csv", "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        overlap = {r[1]: float(r[5]) for r in rows if r[0] == "layer" and r[5]}
        assert overlap["mamba_blocks.0"] < 0.1

    def test_infeasible_config_exit_4(self, tmp_path):
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text("l3_chunk_bytes = 2000000\n")
        assert run("bench", "--config", cfgf) == 4

    @pytest.mark.parametrize("mode", ["banana", "fakequant", "8"])
    def test_unknown_mode_exit_4(self, tmp_path, capsys, mode):
        cfgf = tmp_path / "bench.cfg"
        cfgf.write_text(f"mode = {mode}\n")
        assert run("bench", "--config", cfgf) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err and captured.err.startswith("error:")

    @pytest.mark.parametrize("line", ["l1_byte = 5", "throughput.inptu_proj = 9.0",
                                      "l1_bytes = abc", "scan_mac_mode = banana",
                                      "scan_macs_per_step = 2.5", "scan_mac_mode = analytic",
                                      "scan_macs_per_step = -50", "scan_macs_per_step = 0",
                                      "fixed_cycles.fusion = -1e9",
                                      "fixed_cycles.classifier = -1.0"])
    def test_unused_config_key_or_value_exit_4(self, tmp_path, capsys, line):
        cfgf = tmp_path / "bench.cfg"
        cfgf.write_text(line + "\n")
        assert run("bench", "--config", cfgf) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert repr(line.split()[0]) in captured.err

    def test_json_holds_csv_rows(self, tmp_path, capsys):
        """--format json holds every layer and sub-op record of the csv, and
        its layer cycles sum to its total."""
        out = tmp_path / "r.csv"
        assert run("bench", "--format", "csv", "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert run("bench", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        want = [(r[0], r[1], r[2], r[3]) for r in rows if r[0] in ("layer", "sub_op")]
        got = [("layer", r["name"], "", f"{r['cycles']:.6f}") for r in report["layers"]]
        got += [("sub_op", s["layer"], s["name"], f"{s['cycles']:.6f}")
                for s in report["sub_ops"]]
        assert got == want and len(report["sub_ops"]) > len(report["layers"])
        assert sum(r["cycles"] for r in report["layers"]) == report["cycles"]

    def test_csv_out(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run("bench", "--format", "csv", "--out", out) == 0
        assert out.read_text().startswith("section,")

    @pytest.mark.parametrize("config_mode, flag, want", [
        (None, None, "w8a8"), (None, "w2a8", "w2a8"), ("w2a8", None, "w2a8"),
        ("w2a8", "w8a8", "w8a8"), ("w8a8", "w2a8", "w2a8")])
    def test_mode_flag_overrides_config(self, tmp_path, capsys, config_mode, flag, want):
        """--mode, when given, wins over the config's mode, which wins over
        w8a8."""
        cfgf = tmp_path / "bench.cfg"
        text = "l2_bandwidth_bytes_per_cycle = 4.0\n"
        cfgf.write_text(text + (f"mode = {config_mode}\n" if config_mode else ""))
        flags = ["--mode", flag] if flag else []
        assert run("bench", "--config", cfgf, "--format", "json", *flags) == 0
        hier, cm, _ = ss.config_from_mapping(ss.parse_config_text(text))
        cycles = {mode: ss.run_default(fm.ModelConfig(), cm, hier, mode).total_cycles
                  for mode in ("w8a8", "w2a8")}
        assert cycles["w8a8"] != cycles["w2a8"]
        assert json.loads(capsys.readouterr().out)["cycles"] == cycles[want]


def test_unexpected_key_error_propagates(monkeypatch):
    """cli.main maps only toolchain errors, ValueError and OSError to exit
    codes: a KeyError is a fault of the program and ends in a traceback."""
    def lookup(*args):
        return {}["missing"]

    monkeypatch.setattr(ss, "run_default", lookup)
    with pytest.raises(KeyError):
        run("bench")


class TestModelReadOnce:
    @pytest.mark.parametrize("command", ["quantize fp32", "quantize w8a8",
                                         "infer fp32", "infer fakequant"])
    def test_checkpoint_loaded_once(self, tmp_path, monkeypatch, tiny_checkpoint,
                                    tiny_archive, command):
        """Each command reads the checkpoint file once."""
        kind, mode = command.split()
        real, loads = ct.Container.load.__func__, []

        def counted(cls, path):
            loads.append(str(path))
            return real(cls, path)

        monkeypatch.setattr(ct.Container, "load", classmethod(counted))
        if kind == "quantize":
            argv = ["quantize", tiny_checkpoint, tmp_path / "out.fmbc", "--mode", mode]
            argv += ["--calib", tiny_archive] if mode != "fp32" else []
        else:
            argv = ["infer", write_manifest(tmp_path, model=tiny_checkpoint, mode=mode,
                                            windows=tiny_archive,
                                            output=str(tmp_path / "l.fmbc"))]
        assert run(*argv) == 0
        assert loads.count(tiny_checkpoint) == 1


@pytest.mark.parametrize("command", ["quantize", "preprocess", "infer", "bench --out"])
def test_output_path_is_a_directory(tmp_path, capsys, tiny_checkpoint, tiny_archive, command):
    """An output path that names a directory exits 2 with the error, which
    names the path."""
    out = tmp_path / "out"
    out.mkdir()
    rec = tmp_path / "rec.sig"
    ct.write_recording(rec, np.random.default_rng(3).normal(0, 10, (22, 1280)), 256.0)
    manifest = write_manifest(tmp_path, model=tiny_checkpoint, mode="fp32",
                              windows=tiny_archive, output=str(out))
    argv = {"quantize": ["quantize", tiny_checkpoint, out, "--mode", "fp32"],
            "preprocess": ["preprocess", rec, out],
            "infer": ["infer", manifest],
            "bench --out": ["bench", "--format", "json", "--out", out]}[command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err and "Traceback" not in err


class TestLosses:
    def _tensor_file(self, tmp_path, name, arr, dtype=ct.DT_F32):
        c = ct.Container()
        c.add("tensor", dtype, arr)
        path = tmp_path / name
        c.save(path)
        return str(path)

    def test_smooth_l1_zero(self, tmp_path, capsys):
        x = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        p = self._tensor_file(tmp_path, "p.fmbc", x)
        t = self._tensor_file(tmp_path, "t.fmbc", x)
        out = tmp_path / "g.fmbc"
        assert run("losses", "--loss", "smooth_l1", "--pred", p, "--target", t,
                   "--out", out) == 0
        assert capsys.readouterr().out.strip() == "0.000000000"
        grad = ct.Container.load(out).array("grad_pred")
        assert np.all(grad == 0)

    def test_focal_perfect(self, tmp_path, capsys):
        p = self._tensor_file(tmp_path, "p.fmbc",
                              np.array([[1.0, 0.0]], dtype=np.float32))
        lab = self._tensor_file(tmp_path, "l.fmbc", np.array([0], dtype=np.int32),
                                ct.DT_I32)
        assert run("losses", "--loss", "focal", "--probs", p, "--labels", lab,
                   "--gamma", "2.0") == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_info_nce_golden(self, tmp_path, capsys):
        a = self._tensor_file(tmp_path, "a.fmbc",
                              np.eye(4, dtype=np.float32)[:1])
        negs = self._tensor_file(tmp_path, "n.fmbc",
                                 np.eye(4, dtype=np.float32)[1:])
        assert run("losses", "--loss", "info_nce", "--anchor", a, "--positive", a,
                   "--negatives", negs, "--tau", "1.0") == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(0.7436684, abs=1e-6)

    def test_shape_mismatch_exit_3(self, tmp_path):
        p = self._tensor_file(tmp_path, "p.fmbc", np.zeros((2, 3), dtype=np.float32))
        t = self._tensor_file(tmp_path, "t.fmbc", np.zeros((2, 4), dtype=np.float32))
        assert run("losses", "--loss", "smooth_l1", "--pred", p, "--target", t) == 3

    @pytest.mark.parametrize("case", ["smooth_l1 without pred", "smooth_l1 mask of other shape",
                                      "focal label 5",
                                      "focal label -1", "focal label 0.5",
                                      "info_nce zero norm", "info_nce 1-D negatives",
                                      "info_nce negatives of other dim"])
    def test_malformed_input_exits_cleanly(self, tmp_path, capsys, case):
        f = lambda name, arr: self._tensor_file(tmp_path, name, np.asarray(arr, np.float32))
        eye = np.eye(4)
        if case == "smooth_l1 without pred":
            argv, flag = ["--loss", "smooth_l1", "--target", f("t", eye)], "--pred"
        elif case == "smooth_l1 mask of other shape":
            argv = ["--loss", "smooth_l1", "--pred", f("p", eye[:3]), "--target", f("t", eye[:3]),
                    "--mask", f("m", np.ones(4))]
            flag = "--mask"
        elif case.startswith("focal"):
            label = float(case.split()[-1])
            argv = ["--loss", "focal", "--probs", f("p", np.full((2, 3), 1 / 3)),
                    "--labels", f("l", [0.0, label])]
            flag = "--labels"
        else:
            neg = {"info_nce zero norm": np.zeros((3, 4)), "info_nce 1-D negatives": eye[1],
                   "info_nce negatives of other dim": np.eye(5)[1:]}[case]
            argv = ["--loss", "info_nce", "--anchor", f("a", eye[:1]),
                    "--positive", f("a2", eye[:1]), "--negatives", f("n", neg)]
            flag = "--negatives"
        assert run("losses", *argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and flag in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_golden_regression(self, tmp_path, capsys):
        rng = np.random.default_rng(123)
        p = self._tensor_file(tmp_path, "p.fmbc",
                              rng.normal(size=(4, 6)).astype(np.float32))
        t = self._tensor_file(tmp_path, "t.fmbc",
                              rng.normal(size=(4, 6)).astype(np.float32))
        assert run("losses", "--loss", "smooth_l1", "--pred", p, "--target", t,
                   "--beta", "0.5") == 0
        first = capsys.readouterr().out.strip()
        assert run("losses", "--loss", "smooth_l1", "--pred", p, "--target", t,
                   "--beta", "0.5") == 0
        assert capsys.readouterr().out.strip() == first
