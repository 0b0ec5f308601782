import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femba import objectives as obj


def central_diff(f, x, eps=1e-5):
    """Finite-difference gradient oracle."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


class TestGenMask:
    def test_exact_count_half(self):
        mask = obj.gen_mask(obj.MaskSpec(ratio=0.5, seed=1))
        assert mask.sum() == 40 and mask.size == 80

    def test_clustered_run_bound(self):
        for seed in range(40):
            spec = obj.MaskSpec(ratio=0.5, mode="clustered", seed=seed)
            mask = obj.gen_mask(spec)
            assert mask.sum() == 40
            assert obj.mask_run_count(mask) <= 10

    def test_deterministic(self):
        a = obj.gen_mask(obj.MaskSpec(ratio=0.55, mode="clustered", seed=99))
        b = obj.gen_mask(obj.MaskSpec(ratio=0.55, mode="clustered", seed=99))
        assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(ratio=st.floats(0.5, 0.6), seed=st.integers(0, 2**31),
           mode=st.sampled_from(["random", "clustered"]))
    def test_count_bounds_property(self, ratio, seed, mode):
        spec = obj.MaskSpec(ratio=ratio, mode=mode, seed=seed)
        mask = obj.gen_mask(spec)
        assert mask.sum() == round(ratio * 80)
        assert 40 <= mask.sum() <= 48

    def test_expand(self):
        mask = np.array([True, False, True])
        full = obj.expand_patch_mask(mask, 2, 4)
        assert full.shape == (2, 12)
        assert full[:, :4].all() and not full[:, 4:8].any() and full[:, 8:].all()

    def test_count_bounds_hundred_thousand_specs(self):
        rng = np.random.default_rng(0)
        n = 100_000
        ratios = rng.uniform(0.5, 0.6, n)
        seeds = rng.integers(0, 2**31, n)
        modes = rng.integers(0, 2, n)
        for i in range(n):
            spec = obj.MaskSpec(ratio=float(ratios[i]), seed=int(seeds[i]),
                                mode="clustered" if modes[i] else "random")
            count = int(obj.gen_mask(spec).sum())
            assert count == round(ratios[i] * 80)
            assert 40 <= count <= 48


class TestSmoothL1:
    def test_exact_match_zero(self):
        x = np.random.default_rng(0).normal(size=(4, 8))
        loss, grad = obj.smooth_l1(x, x.copy(), beta=1.0)
        assert loss == 0.0 and np.all(grad == 0)

    def test_quadratic_region_value(self):
        loss, _ = obj.smooth_l1(np.array([0.5]), np.array([0.0]), beta=1.0,
                                mask=np.array([True]))
        assert loss == pytest.approx(0.125, abs=1e-12)

    def test_linear_region_value(self):
        loss, _ = obj.smooth_l1(np.array([2.0]), np.array([0.0]), beta=1.0,
                                mask=np.array([True]))
        assert loss == pytest.approx(1.5, abs=1e-12)

    def test_unmasked_weighting(self):
        pred = np.array([0.5, 0.5])
        target = np.zeros(2)
        loss, _ = obj.smooth_l1(pred, target, beta=1.0,
                                mask=np.array([True, False]))
        assert loss == pytest.approx((0.125 + 0.1 * 0.125) / 2)

    def test_continuous_at_knee(self):
        beta = 0.7
        eps = 1e-9
        lo, _ = obj.smooth_l1(np.array([beta - eps]), np.zeros(1), beta)
        hi, _ = obj.smooth_l1(np.array([beta + eps]), np.zeros(1), beta)
        assert abs(hi - lo) < 1e-7
        # C1: gradient continuous too
        _, glo = obj.smooth_l1(np.array([beta - eps]), np.zeros(1), beta)
        _, ghi = obj.smooth_l1(np.array([beta + eps]), np.zeros(1), beta)
        assert abs(ghi - glo).max() < 1e-7

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(7)
        pred = rng.normal(size=(3, 5))
        target = rng.normal(size=(3, 5))
        mask = rng.random((3, 5)) > 0.5
        _, grad = obj.smooth_l1(pred, target, beta=0.8, mask=mask)
        num = central_diff(lambda p: obj.smooth_l1(p, target, 0.8, mask)[0], pred)
        assert rel_err(grad, num) <= 1e-4


class TestInfoNCE:
    def test_positive_only_zero_loss(self):
        z = np.array([[1.0, 0.0]])
        loss, _ = obj.info_nce(z, z, np.zeros((1, 0, 2)), tau=1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_negatives_closed_form(self):
        anchor = np.array([[1.0, 0.0, 0.0, 0.0]])
        negatives = np.stack([np.eye(4)[1], np.eye(4)[2], np.eye(4)[3]])
        loss, _ = obj.info_nce(anchor, anchor, negatives, tau=1.0)
        want = -math.log(math.e / (math.e + 3.0))
        assert loss == pytest.approx(want, abs=1e-6)
        assert loss == pytest.approx(0.7437, abs=2e-4)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        a, p = rng.normal(size=(2, 6)), rng.normal(size=(2, 6))
        negs = rng.normal(size=(2, 4, 6))
        l1, _ = obj.info_nce(a, p, negs, tau=0.5)
        l2, _ = obj.info_nce(3.7 * a, 0.2 * p, 5.1 * negs, tau=0.5)
        assert l1 == pytest.approx(l2, rel=1e-9)

    def test_negative_permutation_invariance(self):
        rng = np.random.default_rng(4)
        a, p = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        negs = rng.normal(size=(1, 6, 5))
        l1, _ = obj.info_nce(a, p, negs, tau=0.3)
        l2, _ = obj.info_nce(a, p, negs[:, ::-1], tau=0.3)
        assert l1 == pytest.approx(l2, rel=1e-12)

    def test_nonnegative_when_positive_dominates(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 4))
        negs = rng.normal(size=(3, 5, 4))
        loss, _ = obj.info_nce(a, a, negs, tau=1.0)
        assert loss >= 0.0

    def test_zero_norm_rejected(self):
        with pytest.raises(FloatingPointError):
            obj.info_nce(np.zeros((1, 3)), np.ones((1, 3)), np.ones((1, 1, 3)), 1.0)

    def test_gradients_finite_difference(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 4))
        p = rng.normal(size=(2, 4))
        negs = rng.normal(size=(2, 3, 4))
        _, grads = obj.info_nce(a, p, negs, tau=0.7)
        num_a = central_diff(lambda x: obj.info_nce(x, p, negs, 0.7)[0], a)
        num_p = central_diff(lambda x: obj.info_nce(a, x, negs, 0.7)[0], p)
        num_n = central_diff(lambda x: obj.info_nce(a, p, x, 0.7)[0], negs)
        assert rel_err(grads["anchor"], num_a) <= 1e-4
        assert rel_err(grads["positive"], num_p) <= 1e-4
        assert rel_err(grads["negatives"], num_n) <= 1e-4


class TestFocalLoss:
    def test_perfect_prediction(self):
        loss, grad = obj.focal_loss(np.array([[1.0, 0.0]]), np.array([0]),
                                    alpha=1.0, gamma=2.0)
        assert loss == 0.0

    def test_hand_value(self):
        loss, _ = obj.focal_loss(np.array([[0.5, 0.5]]), np.array([0]),
                                 alpha=1.0, gamma=2.0)
        assert loss == pytest.approx(-0.25 * math.log(0.5), abs=1e-12)
        assert loss == pytest.approx(0.17329, abs=1e-5)

    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(4), size=6)
        labels = rng.integers(0, 4, size=6)
        loss, _ = obj.focal_loss(p, labels, alpha=1.0, gamma=0.0)
        ce = -np.mean(np.log(p[np.arange(6), labels]))
        assert loss == pytest.approx(ce, rel=1e-12)

    def test_monotone_decreasing_in_pt(self):
        pts = np.linspace(0.05, 0.99, 40)
        losses = [obj.focal_loss(np.array([[p, 1 - p]]), np.array([0]), 0.7, 2.0)[0]
                  for p in pts]
        assert np.all(np.diff(losses) < 0)

    def test_clamped_pt_finite_loss_zero_grad(self):
        probs = np.array([[0.0, 1.0], [0.4, 0.6]])
        for gamma in (0.0, 2.0):
            loss, grad = obj.focal_loss(probs, np.array([0, 0]), 1.0, gamma)
            assert np.isfinite(loss)
            assert np.all(np.isfinite(grad))
            assert grad[0, 0] == 0.0  # clamped p_t
            assert grad[1, 0] != 0.0

    def test_per_class_alpha(self):
        probs = np.array([[0.3, 0.7], [0.6, 0.4]])
        labels = np.array([0, 1])
        loss, _ = obj.focal_loss(probs, labels, alpha=[0.25, 0.75], gamma=0.0)
        want = np.mean([-0.25 * math.log(0.3), -0.75 * math.log(0.4)])
        assert loss == pytest.approx(want, rel=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(9)
        probs = rng.uniform(0.05, 0.95, size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        _, grad = obj.focal_loss(probs, labels, alpha=0.6, gamma=2.0)
        num = central_diff(lambda p: obj.focal_loss(p, labels, 0.6, 2.0)[0], probs)
        assert rel_err(grad, num) <= 1e-4


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), beta=st.floats(0.2, 3.0),
       gamma=st.floats(0.0, 4.0), tau=st.floats(0.2, 2.0))
def test_gradcheck_property(seed, beta, gamma, tau):
    rng = np.random.default_rng(seed)
    pred, target = rng.normal(size=6), rng.normal(size=6)
    _, g = obj.smooth_l1(pred, target, beta)
    num = central_diff(lambda p: obj.smooth_l1(p, target, beta)[0], pred)
    # skip points too close to the knee, where the finite difference straddles it
    if np.abs(np.abs(pred - target) - beta).min() > 1e-3:
        assert rel_err(g, num) <= 1e-4

    probs = rng.uniform(0.05, 0.95, size=(3, 3))
    labels = rng.integers(0, 3, size=3)
    _, g = obj.focal_loss(probs, labels, 0.5, gamma)
    num = central_diff(lambda p: obj.focal_loss(p, labels, 0.5, gamma)[0], probs)
    assert rel_err(g, num) <= 1e-4

    a, p = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
    negs = rng.normal(size=(3, 4))
    _, grads = obj.info_nce(a, p, negs, tau)
    num = central_diff(lambda x: obj.info_nce(x, p, negs, tau)[0], a)
    assert rel_err(grads["anchor"], num) <= 1e-4
