import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femba import streamsim as ss
from femba.model import ModelConfig


class TestMacCount:
    def test_table_values(self):
        macs = ss.mac_count(ModelConfig())
        assert macs["input_proj"] == 189_728_000
        assert macs["output_proj"] == 94_864_000
        assert macs["conv"] == 985_600
        assert macs["scan"] == 63_078_400

    def test_analytic_mode(self):
        """The recurrence's own count is scan_macs_per_step = 3*d_state + 2."""
        cm = dataclasses.replace(ss.CostModel(), scan_macs_per_step=3 * 16 + 2)
        macs = ss.mac_count(ModelConfig(), cm)
        assert macs["scan"] == (3 * 16 + 2) * 160 * 1540


class TestPlanStream:
    def test_input_projection_chunk_count(self):
        layers = [ss.LayerPlanSpec("L", (ss.SubOp(
            "input_proj", macs=1, tensors=(("w", 1_185_800, 385),)),))]
        plan = ss.plan_stream(layers, ss.MemHierarchy())
        assert len(plan.chunks) == 15  # ceil(1185800 / 81920)
        assert sum(c.nbytes for c in plan.chunks) == 1_185_800
        assert plan.chunks[-1].nbytes == 1_185_800 - 14 * 81920

    def test_small_tensor_single_chunk(self):
        layers = [ss.LayerPlanSpec("L", (ss.SubOp(
            "conv", macs=1, tensors=(("w", 4096, 4),)),))]
        plan = ss.plan_stream(layers, ss.MemHierarchy())
        assert len(plan.chunks) == 1 and plan.chunks[0].nbytes == 4096

    def test_zero_tensor_empty_plan(self):
        layers = [ss.LayerPlanSpec("L", (ss.SubOp("scan", macs=1),))]
        plan = ss.plan_stream(layers, ss.MemHierarchy())
        assert plan.chunks == ()

    def test_oversized_row_is_plan_error(self):
        layers = [ss.LayerPlanSpec("L", (ss.SubOp(
            "input_proj", macs=1, tensors=(("w", 200_000, 70_000),)),))]
        with pytest.raises(ss.PlanError):
            ss.plan_stream(layers, ss.MemHierarchy())

    def test_chunks_tile_each_tensor_in_order(self):
        h = ss.MemHierarchy()
        layers = ss.model_layers(ModelConfig(), ss.CostModel(), "w8a8")
        plan = ss.plan_stream(layers, h)
        sizes = {t[0]: t[1] for layer in layers for sub in layer.sub_ops
                 for t in sub.tensors}
        covered = {}
        for c in plan.chunks:
            assert 0 < c.nbytes <= h.l3_chunk_bytes
            assert c.start == covered.get(c.tensor, 0)  # contiguous, no gap or overlap
            covered[c.tensor] = c.start + c.nbytes
        assert covered == sizes

    def test_conservation(self):
        cfg = ModelConfig()
        layers = ss.model_layers(cfg, ss.CostModel(), "w8a8")
        plan = ss.plan_stream(layers, ss.MemHierarchy())
        want = sum(t[1] for layer in layers for sub in layer.sub_ops
                   for t in sub.tensors)
        assert sum(c.nbytes for c in plan.chunks) == want

    def test_chunk_must_fit_half_l2(self):
        with pytest.raises(ss.PlanError):
            ss.MemHierarchy(l3_chunk_bytes=1_000_000)


class TestSimulate:
    def test_perfect_hiding(self):
        layers = [ss.LayerPlanSpec("L", (ss.SubOp(
            "input_proj", macs=10_000_000, tensors=(("w", 163840, 128),)),))]
        h = ss.MemHierarchy()
        plan = ss.plan_stream(layers, h)
        cr = ss.simulate(plan, ss.CostModel(), h)
        compute = 10_000_000 / 2.65
        first_transfer = 81920 / 4.0
        assert cr.layers[0].overlap_pct == 100.0
        assert cr.total_cycles == pytest.approx(compute + first_transfer)

    def test_zero_bandwidth_limit(self):
        layers = [ss.LayerPlanSpec("L", (ss.SubOp(
            "input_proj", macs=1000, tensors=(("w", 163840, 128),)),))]
        h = ss.MemHierarchy(l2_bandwidth_bytes_per_cycle=1e-6)
        cr = ss.simulate(ss.plan_stream(layers, h), ss.CostModel(), h)
        assert cr.layers[0].overlap_pct < 0.1
        assert cr.total_cycles == pytest.approx(163840 / 1e-6, rel=0.01)

    def test_default_run_matches_device_measurements(self):
        cr = ss.run_default()
        assert cr.total_cycles == pytest.approx(629.4e6, rel=0.03)
        assert cr.latency_s == pytest.approx(1.70, rel=0.03)
        assert cr.energy_j == pytest.approx(0.075, rel=0.03)

    def test_mamba_blocks_dominate(self):
        cr = ss.run_default()
        block = sum(r.cycles for r in cr.layers if r.name.startswith("mamba_blocks"))
        assert block / cr.total_cycles >= 0.98

    def test_layer_cycles_sum_to_total(self):
        cr = ss.run_default()
        assert sum(r.cycles for r in cr.layers) == pytest.approx(cr.total_cycles)
        assert sum(r.pct for r in cr.layers) == pytest.approx(100.0, abs=0.1)

    @settings(max_examples=20, deadline=None)
    @given(bw=st.floats(0.5, 64.0), bw2=st.floats(0.5, 64.0))
    def test_bandwidth_monotonicity(self, bw, bw2):
        lo, hi = sorted((bw, bw2))
        cr_slow = ss.run_default(h=ss.MemHierarchy(l2_bandwidth_bytes_per_cycle=lo))
        cr_fast = ss.run_default(h=ss.MemHierarchy(l2_bandwidth_bytes_per_cycle=hi))
        assert cr_fast.total_cycles <= cr_slow.total_cycles + 1e-6

    def test_throughput_monotonicity(self):
        cm = ss.CostModel()
        thr = {k: v * 2 for k, v in cm.throughput.items()}
        faster = dataclasses.replace(cm, throughput=thr)
        assert ss.run_default(cm=faster).total_cycles <= ss.run_default(cm=cm).total_cycles

    def test_overlap_bounds(self):
        for bw in (0.1, 1.0, 4.0, 64.0):
            cr = ss.run_default(h=ss.MemHierarchy(l2_bandwidth_bytes_per_cycle=bw))
            for r in cr.layers:
                assert 0.0 <= r.overlap_pct <= 100.0

    def test_w2a8_streams_fewer_bytes(self):
        cr8 = ss.run_default(mode="w8a8")
        cr2 = ss.run_default(mode="w2a8")
        assert sum(r.bytes_moved for r in cr2.layers) < sum(r.bytes_moved for r in cr8.layers)
        assert cr2.total_cycles <= cr8.total_cycles


class TestReport:
    def test_layer_order(self):
        cr = ss.run_default()
        names = [r.name for r in cr.layers]
        assert names == ["patch_embed", "pos_embed", "mamba_blocks.0",
                         "mamba_blocks.1", "global_pool", "classifier"]

    def test_sub_op_order(self):
        cr = ss.run_default()
        subs = [s.name for s in cr.sub_ops if s.layer == "mamba_blocks.0"]
        assert subs == list(ss.SUB_OP_ORDER)

    def test_text_contains_rows(self):
        text = ss.report(ss.run_default(), "text")
        for name in ("patch_embed", "pos_embed", "mamba_blocks.0", "mamba_blocks.1",
                     "global_pool", "classifier", "Input Projection",
                     "Selective SSM Scan", "Bidirectional Fusion"):
            assert name in text

    def test_csv_stable_and_parseable(self):
        a = ss.report(ss.run_default(), "csv")
        b = ss.report(ss.run_default(), "csv")
        assert a == b
        rows = [line.split(",") for line in a.strip().splitlines()]
        assert rows[0][0] == "section"
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_empty_report_header_only(self):
        cr = ss.CycleReport(layers=[], sub_ops=[], total_cycles=1.0, total_macs=0,
                            latency_s=1e-9, energy_j=0.0, overlap_pct=100.0)
        csv = ss.report(cr, "csv")
        assert csv.splitlines()[0].startswith("section,")

    def test_percent_sums(self):
        cr = ss.run_default()
        assert sum(r.pct for r in cr.layers) == pytest.approx(100.0, abs=0.1)
        for layer in ("mamba_blocks.0", "mamba_blocks.1"):
            subs = sum(s.pct for s in cr.sub_ops if s.layer == layer)
            assert subs == pytest.approx(100.0, abs=0.1)

    def test_bad_format(self):
        with pytest.raises(ValueError):
            ss.report(ss.run_default(), "xml")


class TestConfigFile:
    def test_parse_and_apply(self):
        text = """
        # comment
        clock_hz = 3.7e8
        l2_bandwidth_bytes_per_cycle = 8.0
        throughput.scan = 0.64
        fixed_cycles.fusion = 1.0e6
        mode = w2a8
        """
        h, cm, mode = ss.config_from_mapping(ss.parse_config_text(text))
        assert h.l2_bandwidth_bytes_per_cycle == 8.0
        assert cm.throughput["scan"] == 0.64
        assert cm.fixed_cycles["fusion"] == 1.0e6
        assert mode == "w2a8"

    def test_bad_line(self):
        with pytest.raises(ss.PlanError):
            ss.parse_config_text("clock 370")
