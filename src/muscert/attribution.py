"""Feature scoring and selection of a stable explanatory mask.

Four continuous scorers (occlusion, gradient saliency, a small LIME-style
surrogate, a permutation-sampling Shapley estimate), top-k binarization,
and the greedy prefix walk that grows a mask until consistency and the
requested certified radii hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as all_permutations
from typing import Sequence

import numpy as np

from .core import (
    ClassifierHandle,
    ConfigError,
    FeatureGrouping,
    Mask,
    evaluate_rows,
    mask_apply_rows,
    ones_mask,
    top_class_and_gap,
    unique_masks,
)
from .certify import radius_from_gap
from .noise import iid_bernoulli_bits, lcg_block
from .smoothing import SmoothedModel, mus_evaluate_many

FD_STEP = 1e-4
LIME_RIDGE = 1e-6
DEFAULT_LIME_SAMPLES = 256
DEFAULT_SHAP_PERMUTATIONS = 64


@dataclass(frozen=True)
class ScoreVector:
    """Per-group relevance scores plus the method that produced them."""

    scores: tuple[float, ...]
    method: str

    def __post_init__(self) -> None:
        if len(self.scores) == 0:
            raise ConfigError("score vector must be non-empty")
        for i, v in enumerate(self.scores):
            if not math.isfinite(v):
                raise ConfigError(f"score {i} is not finite: {v!r}")


def _predicted_class(probs: Sequence[float]) -> int:
    c, _ = top_class_and_gap(probs)
    return c


def occlusion_scores(model: SmoothedModel, x: Sequence[float]) -> ScoreVector:
    """Drop in smoothed predicted-class probability when each group is ablated
    in the mask argument.

    At full keep (lambda_num = q) every atom is all-ones, so this scores the
    base classifier with each group zeroed in the input (bit for bit at q = 2).
    """
    n = model.grouping.n
    ablations = [tuple(0 if j == i else 1 for j in range(n)) for i in range(n)]
    base_probs, *ablated = mus_evaluate_many(model, x, [ones_mask(n)] + ablations)
    c = _predicted_class(base_probs)
    scores = tuple(base_probs[c] - p[c] for p in ablated)
    return ScoreVector(scores=scores, method="occlusion")


def _finite_difference_gradient(base: ClassifierHandle, x: Sequence[float],
                                c: int) -> list[float]:
    grad = []
    for j in range(len(x)):
        up = list(x)
        down = list(x)
        up[j] += FD_STEP
        down[j] -= FD_STEP
        grad.append((base.evaluate(up)[c] - base.evaluate(down)[c]) / (2 * FD_STEP))
    return grad


def gradient_scores(base: ClassifierHandle, x: Sequence[float],
                    grouping: FeatureGrouping) -> ScoreVector:
    """Sum of absolute predicted-class gradient entries within each group.

    The class is fixed from the unmodified input before any perturbation.
    Falls back to central finite differences when the classifier exposes
    no analytic gradient.
    """
    if len(x) != grouping.d:
        raise ConfigError(f"input length {len(x)} != d={grouping.d}")
    c = _predicted_class(base.evaluate(x))
    if hasattr(base, "gradient"):
        grad = list(base.gradient(x, c))
    else:
        grad = _finite_difference_gradient(base, x, c)
    scores = tuple(
        math.fsum(abs(grad[j]) for j in group) for group in grouping.groups
    )
    return ScoreVector(scores=scores, method="vgrad")


def lime_lite_scores(base: ClassifierHandle, x: Sequence[float],
                     grouping: FeatureGrouping, samples: int = DEFAULT_LIME_SAMPLES,
                     kernel_width: float | None = None,
                     rng_state: int = 0) -> ScoreVector:
    """Weighted linear surrogate fitted to the class probability of masked inputs.

    Masks are uniform over the hypercube; weights decay with the number of
    groups dropped. Solved on the ridge-stabilized normal equations.
    """
    n = grouping.n
    if samples < n + 1:
        raise ConfigError(f"need at least n+1={n + 1} samples, got {samples}")
    if kernel_width is None:
        kernel_width = n / 4
    if kernel_width <= 0:
        raise ConfigError(f"kernel width must be positive, got {kernel_width}")
    c = _predicted_class(base.evaluate(x))
    bits = iid_bernoulli_bits(0.5, n, samples, rng_state)
    design = np.ones((samples, n + 1))
    design[:, 1:] = bits
    inputs = mask_apply_rows(np.asarray(x, dtype=float), bits, grouping.index_map())
    targets = evaluate_rows(base, inputs)[:, c]
    kernel = np.array([math.exp(-(dropped * dropped) / (kernel_width * kernel_width))
                       for dropped in range(n + 1)])
    weights = kernel[n - bits.sum(axis=1, dtype=np.intp)]
    wx = design.T * weights
    lhs = wx @ design + LIME_RIDGE * np.eye(n + 1)
    rhs = wx @ targets
    try:
        beta = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"surrogate fit is singular beyond ridge rescue: {exc}") from exc
    if not np.all(np.isfinite(beta)):
        raise ConfigError("surrogate fit produced non-finite coefficients")
    return ScoreVector(scores=tuple(float(b) for b in beta[1:]), method="lime")


def shap_lite_scores(base: ClassifierHandle, x: Sequence[float],
                     grouping: FeatureGrouping,
                     permutations: int = DEFAULT_SHAP_PERMUTATIONS,
                     rng_state: int = 0, exhaustive: bool = False) -> ScoreVector:
    """Permutation-sampling Shapley estimate against a zero baseline.

    Each permutation adds groups one at a time and credits each group its
    marginal change in the predicted-class probability. `exhaustive`
    enumerates all n! orders instead of sampling (small n only).
    """
    n = grouping.n
    if permutations < 1:
        raise ConfigError(f"permutations must be >= 1, got {permutations}")
    c = _predicted_class(base.evaluate(x))
    if exhaustive:
        orders = np.array(list(all_permutations(range(n))), dtype=np.intp).reshape(-1, n)
    else:
        orders = _sampled_orders(n, permutations, rng_state)
    # rank[t, i] is the step at which order t adds group i; the coalition
    # before step s holds the groups ranked below s.
    rank = np.empty((len(orders), n), dtype=np.intp)
    rank[np.arange(len(orders))[:, None], orders] = np.arange(n)
    coalitions = (rank[:, None, :] < np.arange(n + 1)[:, None]).astype(np.uint8)
    distinct, inverse = unique_masks(coalitions.reshape(-1, n))
    inputs = mask_apply_rows(np.asarray(x, dtype=float), distinct, grouping.index_map())
    values = evaluate_rows(base, inputs)[:, c][inverse].reshape(len(orders), n + 1)
    gains = values[:, 1:] - values[:, :-1]
    contrib = np.take_along_axis(gains, rank, axis=1).T.tolist()
    scores = tuple(math.fsum(col) / len(orders) for col in contrib)
    return ScoreVector(scores=scores, method="shap")


def _sampled_orders(n: int, permutations: int, rng_state: int) -> np.ndarray:
    """intp[permutations, n]: one Fisher-Yates shuffle of range(n) per row.

    Row t swaps position i = n-1, ..., 1 with j = next_below(i + 1), where
    the draw for (t, step) is stream value t * (n - 1) + step; all rows take
    a step's swap at once.
    """
    draws = (lcg_block(rng_state, permutations * (n - 1)) >> 32).astype(np.intp)
    draws = draws.reshape(permutations, n - 1)
    orders = np.tile(np.arange(n, dtype=np.intp), (permutations, 1))
    rows = np.arange(permutations)
    for step, i in enumerate(range(n - 1, 0, -1)):
        j = draws[:, step] % (i + 1)
        picked = orders[rows, j]
        orders[rows, j] = orders[:, i]
        orders[:, i] = picked
    return orders


def topk_binarize(scores: ScoreVector | Sequence[float], k: int) -> Mask:
    """Mask selecting the k highest scores, ties going to lower indices."""
    vals = scores.scores if isinstance(scores, ScoreVector) else tuple(scores)
    n = len(vals)
    if not 0 <= k <= n:
        raise ConfigError(f"k must be in [0, {n}], got {k}")
    ranked = sorted(range(n), key=lambda i: (-vals[i], i))
    chosen = set(ranked[:k])
    return tuple(1 if i in chosen else 0 for i in range(n))


def score_ordering(scores: ScoreVector | Sequence[float]) -> tuple[int, ...]:
    """Indices from highest to lowest score, ties by lower index first."""
    vals = scores.scores if isinstance(scores, ScoreVector) else tuple(scores)
    return tuple(sorted(range(len(vals)), key=lambda i: (-vals[i], i)))


def prefix_mask(ordering: Sequence[int], length: int, n: int) -> Mask:
    chosen = set(ordering[:length])
    return tuple(1 if i in chosen else 0 for i in range(n))


def greedy_stable_attribution(model: SmoothedModel, x: Sequence[float],
                              scores: ScoreVector | Sequence[float],
                              r_inc_target: int,
                              r_dec_target: int) -> tuple[Mask, bool]:
    """Shortest high-score prefix that is consistent and meets both radii.

    Returns (mask, met). When no prefix qualifies the all-ones mask is
    returned with met=False rather than raising.
    """
    if r_inc_target < 0 or r_dec_target < 0:
        raise ConfigError("radius targets must be nonnegative")
    n = model.grouping.n
    ordering = score_ordering(scores)
    if len(ordering) != n:
        raise ConfigError(f"got {len(ordering)} scores for n={n} groups")
    prefixes = [prefix_mask(ordering, length, n) for length in range(1, n + 1)]
    p_ones, *p_prefixes = mus_evaluate_many(model, x, [ones_mask(n)] + prefixes)
    pred_class, gap_at_ones = top_class_and_gap(p_ones)
    # The decremental radius depends only on (model, x), so one check covers
    # every prefix.
    _, r_dec = radius_from_gap(gap_at_ones, model.cfg.lambda_num, model.cfg.q)
    if r_dec >= r_dec_target:
        for candidate, p in zip(prefixes, p_prefixes):
            masked_class, gap = top_class_and_gap(p)
            if masked_class != pred_class:
                continue
            _, r_inc = radius_from_gap(gap, model.cfg.lambda_num, model.cfg.q)
            if r_inc >= r_inc_target:
                return candidate, True
    return ones_mask(n), False
