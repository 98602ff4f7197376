"""Feature scoring and selection of a stable explanatory mask.

Four continuous scorers (occlusion, gradient saliency, a small LIME-style
surrogate, a permutation-sampling Shapley estimate), top-k binarization,
and the greedy prefix walk that grows a mask until consistency and the
requested certified radii hold.
"""
from __future__ import annotations

import math
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
    top_classes_and_gaps,
    unique_masks,
)
from .certify import radius_from_gap
from .noise import iid_bernoulli_bits, lcg_block
from .smoothing import SmoothedModel, example_row, mus_evaluate_pairs

FD_STEP = 1e-4
LIME_RIDGE = 1e-6
DEFAULT_LIME_SAMPLES = 256
DEFAULT_SHAP_PERMUTATIONS = 64


def _predicted_class(probs: Sequence[float]) -> int:
    return int(top_classes_and_gaps(np.array([probs], dtype=float))[0][0])


def occlusion_scores(model: SmoothedModel, x: Sequence[float]) -> tuple[float, ...]:
    """Drop in smoothed predicted-class probability when each group is ablated
    in the mask argument.

    At full keep (lambda_num = q) every atom is all-ones, so this scores the
    base classifier with each group zeroed in the input (bit for bit at q = 2).
    """
    return tuple(occlusion_score_rows(model, example_row(model, x))[0].tolist())


def occlusion_score_rows(model: SmoothedModel, xs) -> np.ndarray:
    """occlusion_scores of every row of the (E, d) inputs xs, as an (E, n)
    array, from one mus_evaluate_pairs pass over all-ones and the n
    single-group ablations of each example."""
    n = model.grouping.n
    xs = np.asarray(xs, dtype=float)
    masks = np.ones((n + 1, n), dtype=np.uint8)
    masks[1:] -= np.eye(n, dtype=np.uint8)
    means = mus_evaluate_pairs(model, xs, np.repeat(np.arange(len(xs)), n + 1),
                               np.tile(masks, (len(xs), 1)))
    means = means.reshape(len(xs), n + 1, -1)
    c = top_classes_and_gaps(means[:, 0])[0]
    rows = np.arange(len(xs))
    return means[rows, 0, c][:, None] - means[rows, 1:, c]


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
                    grouping: FeatureGrouping) -> tuple[float, ...]:
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
    if len(grad) != grouping.d:
        raise ConfigError(f"gradient has {len(grad)} entries, expected d={grouping.d}")
    for j, g in enumerate(grad):
        if not math.isfinite(g):
            raise ConfigError(f"gradient entry {j} is not finite: {g!r}")
    return tuple(math.fsum(abs(grad[j]) for j in group) for group in grouping.groups)


def lime_lite_scores(base: ClassifierHandle, x: Sequence[float],
                     grouping: FeatureGrouping, samples: int = DEFAULT_LIME_SAMPLES,
                     kernel_width: float | None = None,
                     rng_state: int = 0) -> tuple[float, ...]:
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
    return tuple(beta[1:].tolist())


def shap_lite_scores(base: ClassifierHandle, x: Sequence[float],
                     grouping: FeatureGrouping,
                     permutations: int = DEFAULT_SHAP_PERMUTATIONS,
                     rng_state: int = 0, exhaustive: bool = False) -> tuple[float, ...]:
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
    coalitions = coalitions.reshape(-1, n)
    rep, inverse = unique_masks(coalitions)
    inputs = mask_apply_rows(np.asarray(x, dtype=float), coalitions[rep], grouping.index_map())
    values = evaluate_rows(base, inputs)[:, c][inverse].reshape(len(orders), n + 1)
    gains = values[:, 1:] - values[:, :-1]
    contrib = np.take_along_axis(gains, rank, axis=1).T.tolist()
    return tuple(math.fsum(col) / len(orders) for col in contrib)


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


def topk_binarize(scores: Sequence[float], k: int) -> Mask:
    """Mask selecting the k highest scores, ties going to lower indices."""
    ordering = score_ordering(scores)
    n = len(ordering)
    if not 0 <= k <= n:
        raise ConfigError(f"k must be in [0, {n}], got {k}")
    return prefix_mask(ordering, k, n)


def score_ordering(scores: Sequence[float]) -> tuple[int, ...]:
    """Indices from highest to lowest score, ties by lower index first."""
    return tuple(sorted(range(len(scores)), key=lambda i: (-scores[i], i)))


def prefix_mask(ordering: Sequence[int], length: int, n: int) -> Mask:
    chosen = set(ordering[:length])
    return tuple(1 if i in chosen else 0 for i in range(n))


def greedy_stable_attribution(model: SmoothedModel, x: Sequence[float],
                              scores: Sequence[float],
                              r_inc_target: int,
                              r_dec_target: int) -> tuple[Mask, bool]:
    """Shortest high-score prefix that is consistent and meets both radii.

    Returns (mask, met). When no prefix qualifies the all-ones mask is
    returned with met=False rather than raising.
    """
    return greedy_stable_masks(model, example_row(model, x), [scores],
                               r_inc_target, r_dec_target)[0]


def greedy_stable_masks(model: SmoothedModel, xs, scores: Sequence,
                        r_inc_target: int, r_dec_target: int) -> list[tuple[Mask, bool]]:
    """greedy_stable_attribution for every row of the (E, d) inputs xs, with
    scores[e] the scores of example e, from one mus_evaluate_pairs pass over
    all-ones and the n prefixes of each example."""
    if r_inc_target < 0 or r_dec_target < 0:
        raise ConfigError("radius targets must be nonnegative")
    n = model.grouping.n
    orderings = [score_ordering(row) for row in scores]
    for ordering in orderings:
        if len(ordering) != n:
            raise ConfigError(f"got {len(ordering)} scores for n={n} groups")
    # rank[e, i] is the position of group i in example e's ordering; the
    # prefix of length L holds the groups ranked below L, and row 0 of each
    # example is the all-ones mask (every rank is below n).
    order = np.array(orderings, dtype=np.intp).reshape(-1, n)
    rank = np.empty_like(order)
    rank[np.arange(len(order))[:, None], order] = np.arange(n)
    lengths = np.r_[n, 1:n + 1]
    masks = (rank[:, None, :] < lengths[:, None]).astype(np.uint8)
    means = mus_evaluate_pairs(model, xs, np.repeat(np.arange(len(order)), n + 1),
                               masks.reshape(-1, n))
    classes, gaps = top_classes_and_gaps(means)
    lam, q = model.cfg.lambda_num, model.cfg.q
    results = []
    for e, (cls, gap) in enumerate(zip(classes.reshape(-1, n + 1).tolist(),
                                       gaps.reshape(-1, n + 1).tolist())):
        # Row 0 is all-ones, row L the prefix of length L. The decremental
        # radius depends only on (model, x), so one check covers every prefix.
        found = None
        if radius_from_gap(gap[0], lam, q)[1] >= r_dec_target:
            found = next((length for length in range(1, n + 1) if cls[length] == cls[0]
                          and radius_from_gap(gap[length], lam, q)[1] >= r_inc_target), None)
        results.append((ones_mask(n), False) if found is None
                       else (tuple(masks[e, found].tolist()), True))
    return results
