"""The tap and layer lists are read off the float-domain walker and the
deployed tensors off `quantizer.tensor_shapes`; the integer engine and
reference write the graph out by hand. These tests hold the hand-written
pair to the derived lists, and the simulator's streamed tensors to the
image's."""

import dataclasses

import pytest

from femba import container as ct
from femba import engine as eng
from femba import image as im
from femba import model as fm
from femba import quantizer as qz
from femba import reference as ref
from femba import streamsim as ss

from conftest import TINY, TINY_GROUPED, make_windows


@pytest.mark.parametrize("fusion", ["sum", "mean"])
@pytest.mark.parametrize("base", [TINY, TINY_GROUPED], ids=["tiny", "grouped"])
def test_lists_match_every_path(base, fusion):
    cfg = dataclasses.replace(base, fusion=fusion)
    weights = fm.init_weights(cfg, seed=5)
    art = qz.quantize_model(weights, cfg, "w8a8", make_windows(cfg, 2, seed=6))
    img = im.load_image(im.build_image(cfg, art))
    win = make_windows(cfg, 1, seed=7)[0]
    taps = set(fm.quant_points(cfg))
    catalog = qz.layer_catalog(cfg)

    tr_e, tr_r = {}, {}
    eng.engine_forward(img, win, trace=tr_e)
    ref.reference_int_forward(img, win, trace=tr_r)
    assert tr_e.keys() == tr_r.keys() == taps | {"logits_i32"}

    assert {name: t.shape for name, t in img.tensors.items()} == \
        dict(qz.tensor_shapes(cfg))
    assert {layer["name"] for layer in catalog} <= img.tensors.keys()
    for layer in catalog[:-1]:
        rows = sum(r for _, r in layer["out_taps"])
        assert rows == art.weights_q[layer["name"]].q.shape[0], layer["name"]

    tr_f, tr_q = {}, {}
    fm.forward(win, weights, cfg, trace=tr_f)
    qz.fake_quant_forward(cfg, art, win, trace=tr_q)
    assert tr_f.keys() == tr_q.keys()
    assert taps <= tr_f.keys()
    assert {k for k in tr_f if k.startswith("linear:")} == \
        {"linear:" + layer["name"] for layer in catalog}


def test_lists_are_in_walk_order():
    taps = fm.quant_points(TINY_GROUPED)
    assert taps[:3] == ["input", "tok_conv", "tokens"] and taps[-1] == "pooled"
    assert len(taps) == len(set(taps)) == 3 + TINY_GROUPED.n_blocks * 24 + 1
    catalog = qz.layer_catalog(TINY_GROUPED)
    assert catalog[0] == dict(name="tokenizer", in_tap="input",
                              out_taps=[("tok_conv", TINY_GROUPED.n_groups * 6)])
    assert catalog[-1] == dict(name="head", in_tap="pooled", out_taps=[])
    for layer in catalog[:-1]:
        assert taps.index(layer["in_tap"]) < taps.index(layer["out_taps"][0][0])


@pytest.mark.parametrize("mode", ["w8a8", "w4a8", "w2a8"])
@pytest.mark.parametrize("cfg", [TINY, TINY_GROUPED], ids=["tiny", "grouped"])
def test_streamsim_streams_the_image_tensors(cfg, mode):
    weights = fm.init_weights(cfg, seed=5)
    art = qz.quantize_model(weights, cfg, mode, make_windows(cfg, 1, seed=6))
    c = im.build_image(cfg, art)
    img = im.load_image(c)
    layers = ss.model_layers(cfg, ss.CostModel(), mode)
    plan = ss.plan_stream(layers, ss.MemHierarchy())

    streamed = [t[0] for layer in layers for sub in layer.sub_ops for t in sub.tensors]
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == img.tensors.keys()
    assert {ch.tensor for ch in plan.chunks} == img.tensors.keys()
    assert sum(ch.nbytes for ch in plan.chunks) == \
        sum(len(c.get(name + ".q").payload_bytes()) for name in img.tensors)
    # each tensor streams the bytes the container size rule gives its entry
    for name, nbytes, _ in (t for layer in layers for sub in layer.sub_ops
                            for t in sub.tensors):
        e = c.get(name + ".q")
        assert nbytes == ct.payload_size(e.dtype, e.dims) == len(e.payload_bytes()), name


@pytest.mark.parametrize("cfg", [TINY, TINY_GROUPED], ids=["tiny", "grouped"])
def test_streamsim_streams_fp32_at_four_bytes_per_weight(cfg):
    layers = ss.model_layers(cfg, ss.CostModel(), "fp32")
    streamed = {t[0]: t[1:] for layer in layers for sub in layer.sub_ops for t in sub.tensors}
    assert streamed == {name: (4 * rows * cols, 4 * cols)
                        for name, (rows, cols) in qz.tensor_shapes(cfg)}
