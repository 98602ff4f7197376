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
)
from . import smoothing
from .certify import radius_from_gap
from .noise import iid_bernoulli_bits, lcg_block
from .smoothing import SmoothedModel, example_row, mus_evaluate_pairs

FD_STEP = 1e-4
LIME_RIDGE = 1e-6
DEFAULT_LIME_SAMPLES = 256
DEFAULT_SHAP_PERMUTATIONS = 64


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


def gradient_scores(base: ClassifierHandle, x: Sequence[float],
                    grouping: FeatureGrouping) -> tuple[float, ...]:
    """Sum of absolute predicted-class gradient entries within each group:
    the one-row call of gradient_score_rows."""
    return tuple(gradient_score_rows(base, [x], grouping)[0].tolist())


def gradient_score_rows(base: ClassifierHandle, xs,
                        grouping: FeatureGrouping) -> np.ndarray:
    """gradient_scores of every row of the (E, d) inputs xs, as an (E, n)
    array; each group sums with math.fsum. The classes come from one chunked
    evaluate_rows call over xs, or in finite_difference_rows for a handle
    with no gradient. Every handle output is checked against the contract."""
    xs = _input_rows(xs, grouping)
    if hasattr(base, "gradient_batch") or hasattr(base, "gradient"):
        grads = _gradient_rows(base, xs, top_classes_and_gaps(_evaluate_chunked(base, xs))[0])
    else:
        grads = finite_difference_rows(base, xs)
    cols = np.abs(grads).T.tolist()
    return np.array([list(map(math.fsum, zip(*[cols[j] for j in group])))
                     for group in grouping.groups]).T


def finite_difference_rows(base: ClassifierHandle, xs: np.ndarray) -> np.ndarray:
    """Central finite differences of the class at each row x of the (E, d)
    array xs, as an (E, d) array. Each example sends x, which fixes its
    class, then x + FD_STEP e_j and then x - FD_STEP e_j for each j; a block
    of examples goes to the base classifier in chunks."""
    d = xs.shape[1]
    grads = np.empty(xs.shape)
    steps = np.eye(d, dtype=bool)
    for block in _example_blocks(len(xs), 2 * d + 1):
        points = xs[block][:, None, :]
        # np.where keeps the signed zeros of x.
        rows = np.concatenate([points, np.where(steps, points + FD_STEP, points),
                               np.where(steps, points - FD_STEP, points)], axis=1)
        probs = _evaluate_chunked(base, rows.reshape(-1, d)).reshape(len(rows), 2 * d + 1, -1)
        column = probs[np.arange(len(rows)), :, top_classes_and_gaps(probs[:, 0])[0]]
        grads[block] = (column[:, 1:d + 1] - column[:, d + 1:]) / (2 * FD_STEP)
    return grads


def _gradient_rows(base: ClassifierHandle, xs: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The (k, d) gradients of class classes[r] at row r of xs, each of d
    finite entries: one gradient_batch call, else one gradient call per row."""
    if hasattr(base, "gradient_batch"):
        rows = base.gradient_batch(xs, classes)
    else:
        rows = [base.gradient(tuple(x), c) for x, c in zip(xs.tolist(), classes.tolist())]
    d = xs.shape[1]
    for row in rows:
        if len(row) != d:
            raise ConfigError(f"gradient has {len(row)} entries, expected d={d}")
    grads = np.array(rows, dtype=float).reshape(len(xs), d)
    if not np.isfinite(grads).all():
        r, j = np.argwhere(~np.isfinite(grads))[0]
        raise ConfigError(f"gradient entry {j} is not finite: {float(grads[r, j])!r}")
    return grads


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _input_rows(xs, grouping: FeatureGrouping) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != grouping.d:
        raise ConfigError(f"input rows of shape {xs.shape} are not (E, d={grouping.d})")
    return xs


def _score_inputs(xs, grouping: FeatureGrouping, rng_states) -> tuple[np.ndarray, list]:
    xs = _input_rows(xs, grouping)
    rng_states = list(rng_states)
    if len(rng_states) != len(xs):
        raise ConfigError(f"got {len(rng_states)} stream states for {len(xs)} examples")
    return xs, rng_states


def _example_blocks(examples: int, rows_each: int, shared: int = 0):
    """Slices of consecutive examples whose batch, `shared` rows plus
    rows_each per example, fits in DRIVER_CHUNK rows (one example at least)."""
    step = max(1, (smoothing.DRIVER_CHUNK - shared) // rows_each)
    return (slice(lo, min(lo + step, examples)) for lo in range(0, examples, step))


def _evaluate_chunked(base: ClassifierHandle, inputs: np.ndarray) -> np.ndarray:
    """evaluate_rows over the (k, d) inputs, DRIVER_CHUNK rows at a time."""
    chunk = smoothing.DRIVER_CHUNK
    return np.concatenate([evaluate_rows(base, inputs[lo:lo + chunk])
                           for lo in range(0, max(len(inputs), 1), chunk)])


def lime_lite_scores(base: ClassifierHandle, x: Sequence[float],
                     grouping: FeatureGrouping, samples: int = DEFAULT_LIME_SAMPLES,
                     kernel_width: float | None = None,
                     rng_state: int = 0) -> tuple[float, ...]:
    """Weighted linear surrogate fitted to the class probability of masked inputs.

    Masks are uniform over the hypercube; weights decay with the number of
    groups dropped. Solved on the ridge-stabilized normal equations.
    """
    return tuple(lime_score_rows(base, [x], grouping, samples, kernel_width,
                                 [rng_state])[0].tolist())


def lime_score_rows(base: ClassifierHandle, xs, grouping: FeatureGrouping,
                    samples: int = DEFAULT_LIME_SAMPLES,
                    kernel_width: float | None = None, rng_states=(0,)) -> np.ndarray:
    """lime_lite_scores of every row of the (E, d) inputs xs, example e
    drawing its masks from stream rng_states[e], as an (E, n) array.

    A block of examples is one batch, sent to the base classifier in chunks:
    the examples themselves, whose outputs give their classes, then their
    masked rows. Each example's surrogate is then solved on its own.
    """
    n = grouping.n
    _check_count("samples", samples)
    if samples < n + 1:
        raise ConfigError(f"need at least n+1={n + 1} samples, got {samples}")
    if kernel_width is None:
        kernel_width = n / 4
    if kernel_width <= 0:
        raise ConfigError(f"kernel width must be positive, got {kernel_width}")
    xs, rng_states = _score_inputs(xs, grouping, rng_states)
    index_map = grouping.index_map()
    kernel = np.array([math.exp(-(dropped * dropped) / (kernel_width * kernel_width))
                       for dropped in range(n + 1)])
    out = np.empty((len(xs), n))
    for block in _example_blocks(len(xs), 1 + samples):
        count = block.stop - block.start
        bits = iid_bernoulli_bits(0.5, n, samples, rng_states[block])
        probs = _evaluate_chunked(base, np.concatenate([xs[block], mask_apply_rows(
            np.repeat(xs[block], samples, axis=0), bits.reshape(-1, n), index_map)]))
        classes = top_classes_and_gaps(probs[:count])[0]
        for e, draws, sampled, c in zip(range(block.start, block.stop), bits,
                                        probs[count:].reshape(count, samples, -1), classes):
            design = np.ones((samples, n + 1))
            design[:, 1:] = draws
            weights = kernel[n - draws.sum(axis=1, dtype=np.intp)]
            wx = design.T * weights
            lhs = wx @ design + LIME_RIDGE * np.eye(n + 1)
            # A column view, as one example's batch gave: matmul may take
            # another kernel, with other bits, for a contiguous vector.
            rhs = wx @ sampled[:, c]
            try:
                beta = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError as exc:
                raise ConfigError(
                    f"surrogate fit is singular beyond ridge rescue: {exc}") from exc
            if not np.all(np.isfinite(beta)):
                raise ConfigError("surrogate fit produced non-finite coefficients")
            out[e] = beta[1:]
    return out


def shap_lite_scores(base: ClassifierHandle, x: Sequence[float],
                     grouping: FeatureGrouping,
                     permutations: int = DEFAULT_SHAP_PERMUTATIONS,
                     rng_state: int = 0, exhaustive: bool = False) -> tuple[float, ...]:
    """Permutation-sampling Shapley estimate against a zero baseline.

    Each permutation adds groups one at a time and credits each group its
    marginal change in the predicted-class probability. `exhaustive`
    enumerates all n! orders instead of sampling (small n only).
    """
    return tuple(shap_score_rows(base, [x], grouping, permutations, [rng_state],
                                 exhaustive)[0].tolist())


def shap_score_rows(base: ClassifierHandle, xs, grouping: FeatureGrouping,
                    permutations: int = DEFAULT_SHAP_PERMUTATIONS, rng_states=(0,),
                    exhaustive: bool = False) -> np.ndarray:
    """shap_lite_scores of every row of the (E, d) inputs xs, example e
    drawing its orders from stream rng_states[e], as an (E, n) array.

    A block of examples is one batch, sent to the base classifier in chunks:
    the empty coalition, which is the zero input for every example, the full
    ones, which are the examples themselves and give their classes, then the
    coalitions in between of each example: those of its P orders, P * (n - 1)
    rows, or with `exhaustive` its 2^n - 2 proper nonempty subsets, which
    hold every coalition of the n! orders once. Each group's marginal gains
    are then summed per example with math.fsum.
    """
    n = grouping.n
    _check_count("permutations", permutations)
    if permutations < 1:
        raise ConfigError(f"permutations must be >= 1, got {permutations}")
    xs, rng_states = _score_inputs(xs, grouping, rng_states)
    index_map = grouping.index_map()
    if exhaustive:
        every_order = np.array(list(all_permutations(range(n))), dtype=np.intp).reshape(-1, n)
        permutations = len(every_order)
        # Row c - 1 of subsets holds the groups of the bits of c, and
        # subset_rows[t, s - 1] is the row of the first s groups of order t.
        codes = np.arange(1, 2 ** n - 1)
        subsets = codes[:, None] >> np.arange(n) & 1
        subset_rows = np.add.accumulate(1 << every_order[:, :-1], axis=1) - 1
    zero = np.zeros((1, grouping.d))
    out = np.empty((len(xs), n))
    # Blocks are sized by the order steps, which bound the gain arrays below
    # as well as the batch.
    for block in _example_blocks(len(xs), 1 + permutations * (n - 1), shared=1):
        count = block.stop - block.start
        if exhaustive:
            orders = np.tile(every_order, (count, 1))
        else:
            orders = _sampled_orders(n, permutations, rng_states[block]).reshape(-1, n)
        # rank[t, i] is the step at which order t adds group i; the coalition
        # before step s holds the groups ranked below s.
        rows = np.arange(len(orders))[:, None]
        rank = np.empty_like(orders)
        rank[rows, orders] = np.arange(n)
        # middle[t, s - 1] is the row of the coalition before step s of order
        # t among the per_example coalition rows of its example.
        if exhaustive:
            per_example, middle = len(subsets), subset_rows[rows[:, 0] % permutations]
            # Every example under every subset, broadcast.
            masked = mask_apply_rows(xs[block][:, None, :], subsets, index_map)
        else:
            per_example = permutations * (n - 1)
            middle = rows % permutations * (n - 1) + np.arange(n - 1)
            coalitions = (rank[:, None, :] < np.arange(1, n)[:, None]).astype(np.uint8)
            masked = mask_apply_rows(np.repeat(xs[block], per_example, axis=0),
                                     coalitions.reshape(-1, n), index_map)
        probs = _evaluate_chunked(base, np.concatenate(
            [zero, xs[block], masked.reshape(-1, grouping.d)]))
        # held[t, s] is the batch row of the coalition before step s of order t.
        example = rows // permutations
        held = np.empty((len(orders), n + 1), dtype=np.intp)
        held[:, 0] = 0
        held[:, 1:n] = 1 + count + example * per_example + middle
        held[:, n] = 1 + example[:, 0]
        classes = np.repeat(top_classes_and_gaps(probs[1:1 + count])[0], permutations)
        values = probs[held, classes[:, None]]
        gains = values[:, 1:] - values[:, :-1]
        contrib = gains[rows, rank].reshape(count, permutations, n)
        for e, columns in enumerate(contrib.transpose(0, 2, 1).tolist(), start=block.start):
            out[e] = [math.fsum(col) / permutations for col in columns]
    return out


def _sampled_orders(n: int, permutations: int, rng_state) -> np.ndarray:
    """intp[permutations, n]: one Fisher-Yates shuffle of range(n) per row;
    for a sequence of stream states, one such block per state,
    intp[len, permutations, n].

    Row t swaps position i = n-1, ..., 1 with j = next_below(i + 1), where
    the draw for (t, step) is stream value t * (n - 1) + step; all rows take
    a step's swap at once.
    """
    block = lcg_block(rng_state, permutations * (n - 1))
    shape = block.shape[:-1] + (permutations, n)
    rows = np.arange(math.prod(shape[:-1]))
    draws = (block >> 32).astype(np.intp).reshape(len(rows), n - 1)
    orders = np.tile(np.arange(n, dtype=np.intp), (len(rows), 1))
    for step, i in enumerate(range(n - 1, 0, -1)):
        j = draws[:, step] % (i + 1)
        picked = orders[rows, j]
        orders[rows, j] = orders[:, i]
        orders[:, i] = picked
    return orders.reshape(shape)


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
