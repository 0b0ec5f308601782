"""Self-supervised and fine-tuning objectives with analytic gradients.

Masked-reconstruction loss (smooth L1 with down-weighted unmasked patches),
contrastive InfoNCE over cosine similarities, and focal loss for imbalanced
classification. Gradients are exact derivatives, verified against central
finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNMASKED_WEIGHT = 0.1
PT_FLOOR = 1e-12


@dataclass(frozen=True)
class MaskSpec:
    n_patches: int = 80
    ratio: float = 0.55  # drawn in [0.5, 0.6] by callers
    mode: str = "random"  # "random" | "clustered"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must be in (0, 1)")
        if self.mode not in ("random", "clustered"):
            raise ValueError("mode must be 'random' or 'clustered'")

    @property
    def masked_count(self) -> int:
        return int(round(self.ratio * self.n_patches))


def gen_mask(spec: MaskSpec) -> np.ndarray:
    """Boolean patch mask with exactly round(ratio * n_patches) True entries.

    Random mode draws a uniform subset. Clustered mode groups the masked
    patches into at most ceil(count/4) contiguous runs with geometrically
    distributed lengths (mean 4); the final run absorbs any remainder so the
    run-count bound always holds.
    """
    rng = np.random.default_rng(spec.seed)
    count = spec.masked_count
    mask = np.zeros(spec.n_patches, dtype=bool)
    if count == 0:
        return mask
    if spec.mode == "random":
        mask[rng.choice(spec.n_patches, size=count, replace=False)] = True
        return mask

    max_runs = -(-count // 4)
    lengths = []
    remaining = count
    while remaining > 0:
        if len(lengths) == max_runs - 1:
            lengths.append(remaining)
            break
        run = min(int(rng.geometric(0.25)), remaining)
        lengths.append(run)
        remaining -= run

    # place runs with at least one unmasked gap between them
    k = len(lengths)
    free = spec.n_patches - count - (k - 1)
    if free < 0:
        raise ValueError("mask does not fit: too many patches masked for clustering")
    # split the free slack into k+1 gaps (before, between, after)
    cuts = np.sort(rng.integers(0, free + 1, size=k))
    gaps = np.diff(np.concatenate([[0], cuts, [free]]))
    pos = gaps[0]
    for i, run in enumerate(lengths):
        mask[pos:pos + run] = True
        pos += run + 1 + gaps[i + 1]
    return mask


def mask_run_count(mask: np.ndarray) -> int:
    m = np.asarray(mask, dtype=np.int8)
    return int(np.sum(np.diff(np.concatenate([[0], m])) == 1))


def expand_patch_mask(mask: np.ndarray, n_channels: int, patch_size: int) -> np.ndarray:
    """Patch mask (n_patches,) -> sample mask (n_channels, n_patches*patch_size)."""
    per_sample = np.repeat(np.asarray(mask, dtype=bool), patch_size)
    return np.broadcast_to(per_sample, (n_channels, per_sample.size)).copy()


def smooth_l1(pred: np.ndarray, target: np.ndarray, beta: float,
              mask: np.ndarray | None = None,
              unmasked_weight: float = UNMASKED_WEIGHT) -> tuple[float, np.ndarray]:
    """Huber-style reconstruction loss with per-element masking weights.

    Elements under the mask weigh 1.0, the rest `unmasked_weight`; the result
    is the global mean of the weighted per-element losses. Returns
    (loss, dloss/dpred).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("pred and target shapes differ")
    diff = pred - target
    ad = np.abs(diff)
    quad = ad < beta
    elem = np.where(quad, 0.5 * diff * diff / beta, ad - 0.5 * beta)
    grad_elem = np.where(quad, diff / beta, np.sign(diff))
    if mask is not None:
        w = np.where(np.asarray(mask, dtype=bool), 1.0, unmasked_weight)
    else:
        w = np.ones_like(elem)
    n = elem.size
    loss = float(np.sum(w * elem) / n)
    return loss, w * grad_elem / n


def _cosine(a: np.ndarray, b: np.ndarray):
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    if np.any(na == 0) or np.any(nb == 0):
        raise FloatingPointError("zero-norm embedding in cosine similarity")
    return np.einsum("...d,...d->...", a, b) / (na * nb)


def info_nce(anchor: np.ndarray, positive: np.ndarray, negatives: np.ndarray,
             tau: float) -> tuple[float, dict[str, np.ndarray]]:
    """Contrastive loss -log softmax(sim(anchor, positive)/tau) over the
    positive plus the negatives, with cosine similarity, averaged over the batch.

    anchor, positive: (B, D); negatives: (B, K, D) or (K, D) shared.
    Returns (loss, grads) with gradients for 'anchor', 'positive', 'negatives'.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    anchor = np.atleast_2d(np.asarray(anchor, dtype=np.float64))
    positive = np.atleast_2d(np.asarray(positive, dtype=np.float64))
    negatives = np.asarray(negatives, dtype=np.float64)
    shared_negatives = negatives.ndim == 2
    if shared_negatives:
        negatives = np.broadcast_to(negatives, (anchor.shape[0],) + negatives.shape)
    bsz, dim = anchor.shape
    k = negatives.shape[1]

    cand = np.concatenate([positive[:, None, :], negatives], axis=1)  # (B, 1+K, D)
    sims = np.empty((bsz, 1 + k))
    for j in range(1 + k):
        sims[:, j] = _cosine(anchor, cand[:, j])
    z = sims / tau
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    loss = float(np.mean(-np.log(p[:, 0])))

    # d loss / d sims = (p - onehot0) / (tau * B)
    dsims = p.copy()
    dsims[:, 0] -= 1.0
    dsims /= tau * bsz

    ga = np.zeros_like(anchor)
    gcand = np.zeros_like(cand)
    na = np.linalg.norm(anchor, axis=1, keepdims=True)
    for j in range(1 + k):
        b = cand[:, j]
        nb = np.linalg.norm(b, axis=1, keepdims=True)
        cos = sims[:, j:j + 1]
        # d cos(a,b)/da = b/(|a||b|) - cos * a/|a|^2
        ga += dsims[:, j:j + 1] * (b / (na * nb) - cos * anchor / (na * na))
        gcand[:, j] = dsims[:, j:j + 1] * (anchor / (na * nb) - cos * b / (nb * nb))

    gneg = gcand[:, 1:]
    if shared_negatives:
        gneg = gneg.sum(axis=0)
    return loss, {"anchor": ga, "positive": gcand[:, 0], "negatives": gneg}


def focal_loss(probs: np.ndarray, labels: np.ndarray, alpha, gamma: float
               ) -> tuple[float, np.ndarray]:
    """-alpha_t (1 - p_t)^gamma log(p_t) averaged over the batch.

    probs: (B, n_classes) predicted probabilities; labels: (B,) int class ids;
    alpha: scalar or per-class array. gamma=0, alpha=1 reduces to cross-entropy.
    A p_t below PT_FLOOR is clamped to it and gets a zero gradient.
    Returns (loss, dloss/dprobs).
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    bsz = probs.shape[0]
    alpha = np.broadcast_to(np.asarray(alpha, dtype=np.float64), (probs.shape[1],))
    pt = probs[np.arange(bsz), labels]
    clamped = pt < PT_FLOOR
    pt = np.maximum(pt, PT_FLOOR)
    at = alpha[labels]
    one_m = 1.0 - pt
    loss = float(np.mean(-at * one_m ** gamma * np.log(pt)))

    if gamma == 0.0:
        dpt = -at / pt
    else:
        dpt = at * (gamma * one_m ** (gamma - 1.0) * np.log(pt) - one_m ** gamma / pt)
    grad = np.zeros_like(probs)
    grad[np.arange(bsz), labels] = np.where(clamped, 0.0, dpt / bsz)
    return loss, grad
