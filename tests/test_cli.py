import json

import numpy as np
import pytest

from femba import cli
from femba import container as ct
from femba import image as im
from femba import model as fm

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


class TestQuantize:
    def test_fp32_byte_preserving_repack(self, tmp_path, tiny_checkpoint):
        out = tmp_path / "repack.fmbc"
        assert run("quantize", tiny_checkpoint, out, "--mode", "fp32") == 0
        assert out.read_bytes() == open(tiny_checkpoint, "rb").read()

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

    def test_missing_calib_exit_3(self, tmp_path, tiny_checkpoint):
        assert run("quantize", tiny_checkpoint, tmp_path / "x.fmbc",
                   "--mode", "w8a8") == 3

    def test_mismatched_shapes_exit_3(self, tmp_path, tiny_checkpoint):
        bad = tmp_path / "bad.fmbc"
        c = ct.Container()
        c.add("windows", ct.DT_F32, np.zeros((2, 5, 7), dtype=np.float32))
        c.save(bad)
        assert run("quantize", tiny_checkpoint, tmp_path / "x.fmbc",
                   "--mode", "w8a8", "--calib", bad) == 3


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

    def test_mode_mismatch_exit_3(self, tmp_path, image_w8, tiny_archive):
        m = write_manifest(tmp_path, model=image_w8, mode="w2a8",
                           windows=tiny_archive, output=str(tmp_path / "x.fmbc"))
        assert run("infer", m) == 3

    def test_missing_model_exit_3(self, tmp_path, tiny_archive):
        m = write_manifest(tmp_path, model=str(tmp_path / "none.fmbc"), mode="w8a8",
                           windows=tiny_archive, output=str(tmp_path / "x.fmbc"))
        assert run("infer", m) == 3

    def test_dump_layers(self, tmp_path, image_w8, tiny_archive):
        dump = tmp_path / "dump.fmbc"
        out = tmp_path / "l.fmbc"
        m = write_manifest(tmp_path, model=image_w8, mode="w8a8",
                           windows=tiny_archive, output=str(out), dump=str(dump))
        assert run("infer", m, "--dump") == 0
        d = ct.Container.load(dump)
        assert "w0.input" in d and "w0.logits_i32" in d
        assert "w0.blocks.0.fwd.y" in d


class TestCorruptImage:
    """A malformed deployment image exits 2 with a message, not a traceback."""

    @pytest.fixture()
    def image_w2(self, tmp_path, tiny_checkpoint, tiny_archive):
        out = tmp_path / "img2.fmbc"
        assert run("quantize", tiny_checkpoint, out, "--mode", "w2a8",
                   "--calib", tiny_archive) == 0
        return ct.Container.load(out)

    def infer_exit(self, tmp_path, capsys, image, archive, corrupt=lambda blob: blob):
        path = tmp_path / "bad.fmbc"
        path.write_bytes(corrupt(image.tobytes()))
        m = write_manifest(tmp_path, model=str(path), mode="w2a8",
                           windows=archive, output=str(tmp_path / "l.fmbc"))
        code = run("infer", m)
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error:")
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

    def test_csv_out(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run("bench", "--format", "csv", "--out", out) == 0
        assert out.read_text().startswith("section,")


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
