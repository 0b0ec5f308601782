"""Every bound the integer paths rely on is checked when an image loads: an
image either fails to load with FormatError/EngineConfigError, or the engine
and the reference agree on it bit for bit."""

import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from femba import container as ct
from femba import engine as eng
from femba import image as im
from femba import model as fm
from femba import quantizer as qz
from femba import reference as ref

from conftest import TINY, TINY_GROUPED, make_windows

REJECTED = (ct.FormatError, eng.EngineConfigError)


def build(cfg, mode, seed=11):
    art = qz.quantize_model(fm.init_weights(cfg, seed=seed), cfg, mode,
                            make_windows(cfg, 6, seed=seed + 1))
    return im.build_image(cfg, art)


@functools.cache
def tiny_blob(mode):
    return build(TINY, mode).tobytes()


@functools.cache
def tiny_entries(mode):
    """The entries of ``tiny_blob(mode)``, read only."""
    return ct.Container.frombytes(tiny_blob(mode)).entries


def assert_agree(img, windows):
    """Engine and reference traces are identical on every window, with no
    numpy floating-point or integer-division fault on either path."""
    for win in windows:
        tr_e, tr_r = {}, {}
        with np.errstate(all="raise"):
            _, lf_e, _ = eng.engine_forward(img, win, trace=tr_e)
            _, lf_r = ref.reference_int_forward(img, win, trace=tr_r)
        assert tr_e.keys() == tr_r.keys()
        for tap in tr_r:
            np.testing.assert_array_equal(tr_e[tap], tr_r[tap], err_msg=tap)
        np.testing.assert_array_equal(lf_e, lf_r)


def loads_or_rejects(c: ct.Container, windows):
    try:
        img = im.load_image(c)
    except REJECTED:
        return False
    assert_agree(img, windows)
    return True


# ---------------------------------------------------------------------------
# one element of one entry, mutated

_GROUPS = {
    "config": lambda n: n == "config",
    "config_f": lambda n: n == "config_f",
    "act_exponents": lambda n: n == "act_exponents",
    "m": lambda n: n.endswith(".m"),
    "k": lambda n: n.endswith(".k"),
    "bias": lambda n: n.endswith(".bias"),
    "weights": lambda n: n.endswith(".q"),
    "lut_meta": lambda n: n.startswith("luts.") and n.endswith(".meta"),
    "lut_entries": lambda n: n.startswith("luts.") and not n.endswith(".meta"),
    "head_dequant": lambda n: n == "head.dequant",
}

_INT_RANGE = {ct.DT_I8: (-2**7, 2**7 - 1), ct.DT_Q15: (-2**15, 2**15 - 1),
              ct.DT_I32: (-2**31, 2**31 - 1), ct.DT_T2: (0, 2**32 - 1)}


def _new_value(draw, dtype, old):
    if dtype == ct.DT_F32:
        return draw(st.one_of(st.floats(width=32), st.sampled_from([0.0, -1.0, 1e30])))
    lo, hi = _INT_RANGE[dtype]
    special = [lo, hi, -1, 0, 1, 24, 25, 62, 63, old - 2, old - 1, old + 1, old + 2]
    return draw(st.one_of(st.sampled_from([v for v in special if lo <= v <= hi]),
                          st.integers(lo, hi)))


@st.composite
def mutations(draw, mode):
    """(entry name, flat index, new value) in the TINY image of ``mode``."""
    entries = tiny_entries(mode)
    group = draw(st.sampled_from(sorted(_GROUPS)))
    names = sorted(n for n, e in entries.items() if _GROUPS[group](n))
    name = draw(st.sampled_from(names))
    e = entries[name]
    index = draw(st.integers(0, e.data.size - 1))
    return name, index, _new_value(draw, e.dtype, e.data.reshape(-1)[index].item())


@pytest.mark.parametrize("mode", ["w8a8", "w2a8"])
@settings(derandomize=True, database=None, deadline=None, max_examples=550,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_mutated_element_loads_consistently_or_is_rejected(mode, data):
    c = ct.Container.frombytes(tiny_blob(mode))
    name, index, value = data.draw(mutations(mode), label="mutation")
    e = c.get(name)
    flat = e.data.reshape(-1).copy()
    flat[index] = value
    e.data = flat
    loaded = loads_or_rejects(c, make_windows(TINY, 1, seed=21))
    event(f"{name.rsplit('.', 1)[-1]}: {'loaded' if loaded else 'rejected'}")


# ---------------------------------------------------------------------------
# activation exponents at the ends of their range

_PATTERNS = [np.zeros(1), np.ones(1)] + [np.random.default_rng(s).integers(0, 2, 200)
                                         for s in range(10)]


@pytest.mark.parametrize("pattern", range(len(_PATTERNS)))
@pytest.mark.parametrize("cfg", [TINY, TINY_GROUPED], ids=["tiny", "grouped"])
def test_exponents_at_range_ends(cfg, pattern):
    """Every tap at exponent 0 or MAX_EXPONENT: all 0, all 24 and ten mixed
    patterns per config load and run identically on both paths."""
    c = build(cfg, "w8a8")
    n = c.array("act_exponents").size
    exps = np.resize(_PATTERNS[pattern], n) * qz.MAX_EXPONENT
    c.add("act_exponents", ct.DT_I8, exps.astype(np.int8))
    img = im.load_image(c)
    assert_agree(img, make_windows(cfg, 2, seed=pattern) +
                 make_windows(cfg, 1, seed=pattern, scale=1e3))


@pytest.mark.parametrize("value", [-1, qz.MAX_EXPONENT + 1, 70])
def test_exponent_outside_range_rejected(value):
    c = build(TINY, "w8a8")
    exps = c.array("act_exponents").copy()
    exps[fm.quant_points(TINY).index("blocks.0.fwd.u")] = value
    c.add("act_exponents", ct.DT_I8, exps)
    with pytest.raises(ct.FormatError, match="act_exponents"):
        im.load_image(c)


# ---------------------------------------------------------------------------
# requantizer shifts, config vector, dims

@pytest.mark.parametrize("name", ["tokenizer", "blocks.0.fwd.in_proj", "pool"])
@pytest.mark.parametrize("k", [im.MAX_SHIFT + 1, 127, -im.MAX_SHIFT - 1])
def test_shift_outside_range_rejected(name, k):
    c = build(TINY, "w8a8")
    c.add(name + ".k", ct.DT_I8, np.array([k], dtype=np.int8))
    with pytest.raises(eng.EngineConfigError, match="shift"):
        im.load_image(c)


def test_shift_at_limit_loads_and_agrees():
    c = build(TINY, "w8a8")
    c.add("pool.k", ct.DT_I8, np.array([im.MAX_SHIFT], dtype=np.int8))
    assert loads_or_rejects(c, make_windows(TINY, 1, seed=4))


@pytest.mark.parametrize("k", [38, 46, 47, im.MAX_SHIFT])
@pytest.mark.parametrize("lo", ["built", "lowest", "highest"])
def test_exp_index_at_any_shift_and_offset_loads_and_agrees(k, lo):
    """The scan folds 2^(k-1) - lo_fixed * 2^k into one int64 add. An a_mat
    shift up to MAX_SHIFT, with the exp table's domain anywhere in int32,
    still loads, and the engine agrees with the reference on it."""
    c = build(TINY, "w8a8")
    c.add("blocks.1.bwd.a_mat.k", ct.DT_I8, np.array([k], dtype=np.int8))
    meta = c.get("luts.exp.meta")
    span = (eng.LUT_SIZE - 1) << int(meta.data[3])
    lo_fixed = {"built": int(meta.data[0]), "lowest": -2**31, "highest": 2**31 - 1 - span}[lo]
    c.add("luts.exp.meta", meta.dtype, np.array([lo_fixed, *meta.data[1:]], dtype=np.int32))
    assert_agree(im.load_image(c), make_windows(TINY, 1, seed=4))


def test_bias_clipped_before_rounding():
    """A bias past INT32 keeps its sign: it is clipped in float64 before
    the cast to int64 can wrap it."""
    got = im._bias_to_int32(np.array([1e30, 5.0, -1e30, 2.0**70]), np.ones(4))
    np.testing.assert_array_equal(got, [im.INT32_MAX, 5, -im.INT32_MAX, im.INT32_MAX])


_CONFIG_INDEX = {name: i for i, name in enumerate(im._CONFIG_DIMS + ("fusion", "mode"))}


@pytest.mark.parametrize("field,value,error", [
    ("fusion", 7, ct.FormatError),
    ("fusion", -1, ct.FormatError),
    ("fusion", 2, ct.FormatError),              # the first index past the fusion modes
    ("mode", 9, ct.FormatError),
    ("mode", -1, ct.FormatError),
    ("mode", 0, eng.EngineConfigError),         # fp32
    ("patch_size", 0, ct.FormatError),
    ("n_samples", 33, ct.FormatError),          # not a multiple of patch_size
    ("d_model", 9, ct.FormatError),
    ("d_inner", 2**31 - 1, ct.FormatError),
    ("dt_rank", 3, ct.FormatError),
    ("n_blocks", 2**31 - 1, ct.FormatError),
    ("n_blocks", 1, ct.FormatError),            # act_exponents then has the wrong length
])
def test_config_vector_checked(field, value, error):
    c = build(TINY, "w8a8")
    vec = c.array("config").copy()
    vec[_CONFIG_INDEX[field]] = value
    c.add("config", ct.DT_I32, vec)
    with pytest.raises(error):
        im.load_image(c)


@pytest.mark.parametrize("index,value", [
    (0, np.inf), (0, -np.inf), (0, np.nan), (0, 0.0), (0, -1.0), (0, 20.0),  # dt_min
    (1, np.inf), (1, -np.inf), (1, np.nan), (1, 0.0), (1, 1e-5),             # dt_max
])
def test_dt_range_checked(index, value):
    c = build(TINY, "w8a8")
    vec = c.array("config_f").copy()
    vec[index] = value
    c.add("config_f", ct.DT_F32, vec)
    with pytest.raises(ct.FormatError, match="config_f"):
        im.load_image(c)


def test_record_dims_match_config():
    c = build(TINY, "w8a8")
    a = c.array("blocks.1.bwd.a_mat.q")
    c.add("blocks.1.bwd.a_mat.q", ct.DT_I8, a.reshape(a.shape[1], a.shape[0]))
    with pytest.raises(ct.FormatError, match="a_mat"):
        im.load_image(c)


def test_non_finite_head_dequant_rejected():
    c = build(TINY, "w8a8")
    dq = c.array("head.dequant").copy()
    dq[0] = np.nan
    c.add("head.dequant", ct.DT_F32, dq)
    with pytest.raises(ct.FormatError, match="head.dequant"):
        im.load_image(c)


# ---------------------------------------------------------------------------
# every entry is read through one reader that checks its dtype and dims

def rewritten(e: ct.Entry, dtype: int, dims: tuple) -> np.ndarray:
    """The payload of entry ``e`` stored as ``dtype`` of ``dims``: its
    values, clipped into the dtype's range and repeated or cut to fill it."""
    dt = ct.DTYPES[dtype].np
    vals = np.resize(e.data.astype(np.float64), ct.payload_size(dtype, dims) // dt.itemsize)
    if dt.kind in "iu":
        vals = np.clip(np.rint(vals), np.iinfo(dt).min, np.iinfo(dt).max)
    return vals.astype(dt)


def misfits(e: ct.Entry, accepted):
    """(dtype, dims) rewrites of entry ``e`` that its reader must reject:
    every container dtype outside ``accepted`` at its dims, then its dtype
    with one more leading axis (same values) and with one more row."""
    yield from ((d, e.dims) for d in ct.DTYPES if d not in accepted)
    yield e.dtype, (1, *e.dims)
    yield e.dtype, (e.dims[0] + 1, *e.dims[1:])


def assert_rejects_misfits(c: ct.Container, name: str, accepted, load):
    for dtype, dims in misfits(c.get(name), accepted):
        bad = ct.Container(dict(c.entries))
        bad.add(name, dtype, rewritten(c.get(name), dtype, dims), dims=dims)
        with pytest.raises(ct.FormatError, match=re.escape(f"entry {name!r}")):
            load(bad)


@pytest.mark.parametrize("mode,name", [(mode, name) for mode in ("w8a8", "w2a8")
                                       for name in tiny_entries(mode)])
def test_image_entry_of_other_dtype_or_dims_rejected(mode, name):
    """Each entry of an image, stored as any other container dtype or with
    other dims, fails to load with a FormatError naming it; a ``.q`` entry
    may be i8 or t2."""
    c = ct.Container.frombytes(tiny_blob(mode))
    accepted = (ct.DT_I8, ct.DT_T2) if name.endswith(".q") else (c.get(name).dtype,)
    assert_rejects_misfits(c, name, accepted, im.load_image)


@pytest.mark.parametrize("name", ["config", "config_f"])
def test_checkpoint_config_of_other_dtype_or_dims_rejected(tmp_path, name):
    im.save_checkpoint(fm.init_weights(TINY, seed=2), TINY, tmp_path / "ckpt.fmbc")
    c = ct.Container.load(tmp_path / "ckpt.fmbc")
    assert_rejects_misfits(c, name, (c.get(name).dtype,), im.load_checkpoint)


@pytest.mark.parametrize("mode", ["w8a8", "w4a8", "w2a8"])
@pytest.mark.parametrize("cfg", [TINY, TINY_GROUPED], ids=["tiny", "grouped"])
def test_image_loads_to_what_build_image_wrote(cfg, mode):
    """Every number `build_image` writes loads back unchanged: the config,
    the exponents as Python ints (so an exponent never turns int32 array
    arithmetic into int64), each tensor record, the pooling requantizer, the
    head's scales and each lookup table with int16 entries."""
    c = build(cfg, mode)
    img = im.load_image(c)
    data = {name: e.data.reshape(-1) for name, e in c.entries.items()}
    f32 = lambda v: float(np.float32(v))
    assert img.cfg == dataclasses.replace(cfg, dt_min=f32(cfg.dt_min), dt_max=f32(cfg.dt_max))
    assert img.mode == mode
    assert list(img.act_exp) == fm.quant_points(cfg)
    assert list(img.act_exp.values()) == data["act_exponents"].tolist()
    assert {type(n) for n in img.act_exp.values()} == {int}
    for name, shape in qz.tensor_shapes(cfg):
        t = img.tensors[name]
        values = t.words if t.kind == "t2" else t.q.reshape(-1)
        np.testing.assert_array_equal(values, data[name + ".q"])
        assert values.dtype == {"t2": np.uint32, "i8": np.int8}[t.kind]
        assert (t.kind, t.shape) == (ct.DTYPES[c.get(name + ".q").dtype].name, shape)
        if name != "head":
            np.testing.assert_array_equal(t.m, data[name + ".m"])
            assert t.m.dtype == np.int64 and t.k == int(data[name + ".k"][0])
        if name + ".bias" in data:
            np.testing.assert_array_equal(t.bias, data[name + ".bias"])
            assert t.bias.dtype == np.int64
    assert (img.pool_m, img.pool_k) == (int(data["pool.m"][0]), int(data["pool.k"][0]))
    np.testing.assert_array_equal(img.head_dequant, data["head.dequant"])
    assert img.head_dequant.dtype == np.float64
    assert list(img.luts) == list(eng.LUT_FORMATS)
    for name, lut in img.luts.items():
        assert lut.entries.dtype == np.int16
        np.testing.assert_array_equal(lut.entries, data[f"luts.{name}"])
        assert [lut.lo_fixed, lut.in_frac, lut.out_frac, lut.step_shift] == \
            data[f"luts.{name}.meta"].tolist()


# ---------------------------------------------------------------------------
# the scan build at the ends of its int32 bounds

def scan_stats(img, trace) -> eng.EngineStats:
    """The scan statistics recomputed in int64 from the reference's taps:
    bx values clipped to Q15, then steps of the recurrence that saturate."""
    stats = eng.EngineStats()
    n = img.act_exp
    for i in range(img.cfg.n_blocks):
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            u, b, dtp = (trace[p + tap].astype(np.int64) for tap in ("u", "b", "dt_pre"))
            a_mat = img.tensors[p + "a_mat"]
            dt = ref._interp(img.luts["softplus"], ref._to_frac(dtp, n[p + "dt_pre"], 15))
            abar = ref._interp(img.luts["exp"], scan_la(img, p, dt))
            raw = ref._round_shift((dt * u)[:, :, None] * b[:, None, :],
                                   eng.DT_FRAC + n[p + "u"] + n[p + "b"] - 15)
            bx = np.clip(raw, eng.Q15_MIN, eng.Q15_MAX)
            stats.scan_sat_events += int(np.count_nonzero(bx != raw))
            h = np.zeros(bx.shape[1:], dtype=np.int64)
            for t in range(bx.shape[0]):
                v = ref._round_shift(abar[t] * h, 15) + bx[t]
                h = np.clip(v, eng.Q15_MIN, eng.Q15_MAX)
                stats.scan_sat_events += int(np.count_nonzero(h != v))
            stats.scan_steps += bx.size
    return stats


def scan_la(img, p, dt):
    """The exp LUT input of branch p, before it is clipped to the domain."""
    a_mat = img.tensors[p + "a_mat"]
    return ref._round_shift(dt[:, :, None] * a_mat.dense()[None]
                            * a_mat.m[None, :, None], a_mat.k)


def assert_scan_agrees(img, windows):
    """Engine = reference tap for tap, and the engine's scan statistics, on
    two calls in a row, equal the int64 recount. Returns the recount."""
    total = eng.EngineStats()
    for win in windows:
        tr_r = {}
        ref.reference_int_forward(img, win, trace=tr_r)
        want = scan_stats(img, tr_r)
        for _ in range(2):
            tr_e = {}
            _, _, got = eng.engine_forward(img, win, trace=tr_e)
            assert list(tr_e) == list(tr_r)
            for tap in tr_r:
                np.testing.assert_array_equal(tr_e[tap], tr_r[tap], err_msg=tap)
            assert got == want
        total += want
    return total


@pytest.mark.parametrize("n_u,n_b", [(0, 0), (0, 4), (6, 24), (7, 24), (24, 24)],
                         ids=["shift-4", "shift0", "shift30", "shift31", "shift44"])
@pytest.mark.parametrize("cfg", [TINY, TINY_GROUPED], ids=["tiny", "grouped"])
def test_bx_shift_at_int32_bounds(cfg, n_u, n_b):
    """bx = rhu(dt * u * b, DT_FRAC + n_u + n_b - 15) at shift -4 (a left
    shift, whose products saturate), 0, 30 (the widest int32 rounding), 31
    (the first shift that gives 0) and 44 (the largest)."""
    c = build(cfg, "w8a8")
    taps = fm.quant_points(cfg)
    exps = c.array("act_exponents").copy()
    for i in range(cfg.n_blocks):
        for d in ("fwd", "bwd"):
            exps[taps.index(f"blocks.{i}.{d}.u")] = n_u
            exps[taps.index(f"blocks.{i}.{d}.b")] = n_b
    c.add("act_exponents", ct.DT_I8, exps)
    img = im.load_image(c)
    stats = assert_scan_agrees(img, make_windows(cfg, 2, seed=7) +
                               make_windows(cfg, 1, seed=8, scale=1e3))
    if n_u + n_b == 0:
        assert stats.scan_sat_events > 0


@pytest.mark.parametrize("cfg", [TINY, TINY_GROUPED], ids=["tiny", "grouped"])
def test_la_past_both_ends_of_exp_domain(cfg):
    """a_mat of both signs with shift k = 0 makes the step products of these
    dt_pre values land far below the exp domain and far above it (its top is
    0); zero entries of a_mat keep some inside it."""
    c = build(cfg, "w8a8")
    for i in range(cfg.n_blocks):
        for d in ("fwd", "bwd"):
            p = f"blocks.{i}.{d}."
            q = c.array(p + "a_mat.q").copy()
            q[:, 0::3], q[:, 1::3], q[:, 2::3] = 127, -127, 0
            c.add(p + "a_mat.q", ct.DT_I8, q)
            c.add(p + "a_mat.k", ct.DT_I8, np.zeros(1, dtype=np.int8))
    img = im.load_image(c)
    windows = make_windows(cfg, 2, seed=9) + make_windows(cfg, 1, seed=10, scale=1e3)
    assert_scan_agrees(img, windows)
    exp = img.luts["exp"]
    tr = {}
    ref.reference_int_forward(img, windows[0], trace=tr)
    p = "blocks.0.fwd."
    dt = ref._interp(img.luts["softplus"],
                     ref._to_frac(tr[p + "dt_pre"], img.act_exp[p + "dt_pre"], 15))
    la = scan_la(img, p, dt)
    assert la.min() < exp.lo_fixed and la.max() > exp.lo_fixed + exp.dense.size - 1
    assert np.any(la == 0)


# --- the image's float view --------------------------------------------------

def expected_grids(name: str, cfg, n) -> tuple:
    """(n_in, n_out) of a deployed tensor, written out here apart from
    `image.requant_grids`."""
    kind, p = name.rsplit(".", 1)[-1], name.rsplit(".", 1)[0] + "."
    if kind == "pos":
        return 0, n["tok_conv"]
    if kind == "a_mat":
        return eng.DT_FRAC, eng.EXP_IN_FRAC
    if kind == "d_skip":
        return n[p + "u"], n[p + "c"] + 15  # c times the Q15 scan state
    if name == "head":
        return n["pooled"], 0
    layer = {x["name"]: x for x in qz.layer_catalog(cfg)}[name]
    return n[layer["in_tap"]], np.concatenate(
        [np.full(rows, n[tap]) for tap, rows in layer["out_taps"]])


@pytest.mark.parametrize("mode", ["w8a8", "w4a8", "w2a8"])
@pytest.mark.parametrize("cfg", [TINY, dataclasses.replace(TINY_GROUPED, fusion="mean")],
                         ids=["tiny", "grouped-mean"])
def test_float_view_is_each_tensor_dequantized(cfg, mode):
    """Each tensor of the image's float view is its int values times the
    requantizer unfolded on the grids above, and lies within half a
    requantizer step of the artifacts' dequantized tensor; each bias lies
    within that step and its INT32 rounding of the artifacts' bias."""
    art = qz.quantize_model(fm.init_weights(cfg, seed=11), cfg, mode,
                            make_windows(cfg, 6, seed=12))
    img = im.load_image(im.build_image(cfg, art))
    table = img.float_view
    slack = 1 + 1e-12  # float rounding of the products compared here
    for name, _ in qz.tensor_shapes(cfg):
        t, qt = img.tensors[name], art.weights_q[name]
        n_in, n_out = expected_grids(name, cfg, img.act_exp)
        q, (w, b) = t.dense(), table[name]
        if name == "head":
            scales = img.head_dequant * 2.0 ** n_in
            half_step = qt.scales * 2.0 ** -24  # head.dequant's float32 rounding
        else:
            scales = t.m * 2.0 ** (n_in - n_out - t.k)
            half_step = np.broadcast_to(2.0 ** (n_in - n_out - t.k - 1), scales.shape)
        np.testing.assert_allclose(w, q * scales[:, None], rtol=1e-15, atol=0, err_msg=name)
        err = np.abs(w - qt.dequant)
        assert np.all(err <= np.abs(q) * half_step[:, None] * slack), name
        if name.endswith(".a_mat"):
            assert np.all(w <= 0.0)
        if name not in art.biases:
            assert b is None, name
            continue
        bound = 2.0 ** -n_in * (0.5 * qt.scales + np.abs(t.bias) * half_step)
        assert np.all(np.abs(b - art.biases[name]) <= bound * slack), name


@pytest.mark.parametrize("cfg", [TINY, dataclasses.replace(TINY_GROUPED, fusion="mean"),
                                 fm.ModelConfig()])
def test_checkpoint_holds_param_shapes_in_order(tmp_path, cfg):
    """A float checkpoint stores each parameter of `model.param_shapes`
    under its own name, in that order and of its dims, and loads back to
    the same dict rounded to float32 and to an equal config."""
    w = fm.init_weights(cfg, seed=4)
    shapes = list(fm.param_shapes(cfg))
    assert [(name, a.shape) for name, a in w.items()] == shapes
    path = tmp_path / "ckpt.fmbc"
    im.save_checkpoint(w, cfg, path)
    c = ct.Container.load(path)
    assert [(name, e.dims) for name, e in c.entries.items()][2:] == shapes
    got, got_cfg = im.load_checkpoint(path)
    assert got_cfg == cfg and list(got) == list(w)
    from_c, from_c_cfg = im.load_checkpoint(c)
    assert from_c_cfg == cfg and list(from_c) == list(w)
    for name, a in from_c.items():
        np.testing.assert_array_equal(a, got[name])
    for name, a in got.items():
        assert a.dtype == np.float64
        np.testing.assert_array_equal(a, w[name].astype(np.float32))
