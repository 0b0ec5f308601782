"""Every bound the integer paths rely on is checked when an image loads: an
image either fails to load with FormatError/EngineConfigError, or the engine
and the reference agree on it bit for bit."""

import functools

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
            _, lf_e, _ = eng.engine_forward(img, win, workers=2, trace=tr_e)
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


_CONFIG_INDEX = {name: i for i, name in enumerate(im._CONFIG_DIMS + ("fusion", "mode"))}


@pytest.mark.parametrize("field,value,error", [
    ("fusion", 7, ct.FormatError),
    ("fusion", -1, ct.FormatError),
    ("fusion", 2, eng.EngineConfigError),       # concat_project
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
