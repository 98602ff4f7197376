"""Feature scoring and selection of a stable explanatory mask.

Four continuous scorers (occlusion, gradient saliency, a small LIME-style
surrogate, a permutation-sampling Shapley estimate), top-k binarization,
and the greedy prefix walk that grows a mask until consistency and the
requested certified radii hold.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    ClassifierHandle,
    ConfigError,
    FeatureGrouping,
    Mask,
    _float_rows,
    _int_arg,
    _real_arg,
    _zero_unless,
    evaluate_rows,
    top_classes_and_gaps,
)
from . import smoothing
from .certify import radii_from_gaps
from .models import _exp
from .noise import iid_bernoulli_bits, lcg_block
from .smoothing import SmoothedModel, _example_blocks, _grid_means, mus_evaluate_pairs

FD_STEP = 1e-4
LIME_RIDGE = 1e-6
DEFAULT_LIME_SAMPLES = 256
DEFAULT_SHAP_PERMUTATIONS = 64
# The most rows one example's LIME or SHAP batch may hold, a default driver
# window; so samples + 1 and permutations * (n - 1) + 2 (the example and
# the zero row) may not exceed it, checked before any array is built.
MAX_EXAMPLE_ROWS = 16 * smoothing.DRIVER_CHUNK


def occlusion_scores(model: SmoothedModel, x: Sequence[float]) -> tuple[float, ...]:
    """Drop in smoothed predicted-class probability when each group is ablated
    in the mask argument.

    At full keep (lambda_num = q) every atom is all-ones, so this scores the
    base classifier with each group zeroed in the input (bit for bit at q = 2).
    """
    return tuple(occlusion_score_rows(model, [x])[0].tolist())


def occlusion_score_rows(model: SmoothedModel, xs) -> np.ndarray:
    """occlusion_scores of every row of the (E, d) inputs xs, as an (E, n)
    array, from one smoothing._grid_means pass over all-ones and the n
    single-group ablations, masks that every example shares."""
    return _occlusion_stage(model, xs)[0]


def _occlusion_stage(model: SmoothedModel, xs) -> tuple[np.ndarray, np.ndarray]:
    """occlusion_score_rows and the (E, m) all-ones means it smoothed, for the
    next stage: the n + 1 masks go through _grid_means, which finds their
    distinct effective masks once for all the examples."""
    n = model.grouping.n
    xs = _float_rows(xs, model.grouping.d)
    masks = np.ones((n + 1, n), dtype=np.uint8)
    masks[1:] -= np.eye(n, dtype=np.uint8)
    means = _grid_means(model, xs, masks)
    c = top_classes_and_gaps(means[:, 0])[0]
    rows = np.arange(len(xs))
    return means[rows, 0, c][:, None] - means[rows, 1:, c], means[:, 0]


def gradient_score_rows(base: ClassifierHandle, xs,
                        grouping: FeatureGrouping) -> np.ndarray:
    """Vanilla gradient scores of every row of the (E, d) inputs xs, as an
    (E, n) array: the absolute predicted-class gradient entries of each
    group, summed with math.fsum; a group of one feature takes its column
    as it is, since fsum([v]) == v. The classes come from one evaluate_rows
    call over xs, or in finite_difference_rows for a handle with no
    gradient. Every handle output is checked against the contract."""
    xs = _float_rows(xs, grouping.d)
    if hasattr(base, "gradient_batch") or hasattr(base, "gradient"):
        grads = _gradient_rows(base, xs, top_classes_and_gaps(evaluate_rows(base, xs))[0])
    else:
        grads = finite_difference_rows(base, xs)
    grads = np.abs(grads)
    out = np.empty((len(xs), grouping.n))
    for i, group in enumerate(grouping.groups):
        out[:, i] = (grads[:, group[0]] if len(group) == 1
                     else list(map(math.fsum, grads[:, group].tolist())))
    return out


def finite_difference_rows(base: ClassifierHandle, xs: np.ndarray) -> np.ndarray:
    """Central finite differences of the class at each row x of the (E, d)
    array xs, as an (E, d) array. Each example sends x, which fixes its
    class, then x + FD_STEP e_j and then x - FD_STEP e_j for each j; a block
    of examples is one evaluate_rows call."""
    d = xs.shape[1]
    grads = np.empty(xs.shape)
    steps = np.eye(d, dtype=bool)
    for block in _example_blocks(len(xs), 2 * d + 1):
        points = xs[block][:, None, :]
        # np.where keeps the signed zeros of x.
        rows = np.concatenate([points, np.where(steps, points + FD_STEP, points),
                               np.where(steps, points - FD_STEP, points)], axis=1)
        probs = evaluate_rows(base, rows.reshape(-1, d)).reshape(len(rows), 2 * d + 1, -1)
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


def _score_inputs(xs, grouping: FeatureGrouping, rng_states) -> tuple[np.ndarray, list]:
    xs = _float_rows(xs, grouping.d)
    rng_states = list(rng_states)
    if len(rng_states) != len(xs):
        raise ConfigError(f"got {len(rng_states)} stream states for {len(xs)} examples")
    return xs, rng_states


def _masked_batch(xs: np.ndarray, keep: np.ndarray, zero_rows: int = 0) -> np.ndarray:
    """The (k, d) batch of zero_rows zero rows, the E rows of xs, then the R
    rows of each xs[e] masked in place by keep[:, e] of the (d, E, R)
    raw-feature keep bits; as the transpose of one C-contiguous (d, k)
    array, whose columns the built-in models take as they are."""
    d, examples, per = keep.shape
    head = zero_rows + examples
    cols = np.empty((d, head + examples * per))
    cols[:, :zero_rows] = 0.0
    cols[:, zero_rows:head] = xs.T
    _zero_unless(keep, xs.T[:, :, None], cols[:, head:].reshape(keep.shape))
    return cols.T


def lime_score_rows(base: ClassifierHandle, xs, grouping: FeatureGrouping,
                    samples: int = DEFAULT_LIME_SAMPLES,
                    kernel_width: float | None = None, rng_states=(0,)) -> np.ndarray:
    """Weighted linear surrogates fitted to the class probability of masked
    inputs, one per row of the (E, d) inputs xs, as an (E, n) array.

    Example e draws its masks uniformly over the hypercube from stream
    rng_states[e]; weights decay with the number of groups dropped. Each
    surrogate is solved on the ridge-stabilized normal equations.

    A block of examples is one evaluate_rows call: the examples themselves,
    whose outputs give their classes, then their masked rows. The block's
    surrogates are then solved in one call.
    """
    n = grouping.n
    samples = _int_arg("samples", samples, n + 1, MAX_EXAMPLE_ROWS - 1)
    kernel_width = _real_arg("kernel width", n / 4 if kernel_width is None else kernel_width)
    if not (kernel_width > 0 and kernel_width * kernel_width > 0):
        raise ConfigError(f"kernel width must be positive with a nonzero square, "
                          f"got {kernel_width}")
    xs, rng_states = _score_inputs(xs, grouping, rng_states)
    index_map = grouping.index_map()
    dropped = np.arange(n + 1, dtype=float)
    kernel = _exp(-(dropped * dropped) / (kernel_width * kernel_width))
    out, design = np.empty((len(xs), n)), np.ones((samples, n + 1))
    for block in _example_blocks(len(xs), 1 + samples):
        count = block.stop - block.start
        bits = iid_bernoulli_bits(0.5, n, samples, rng_states[block])
        probs = evaluate_rows(base, _masked_batch(xs[block], bits.transpose(2, 0, 1)[index_map]))
        classes = top_classes_and_gaps(probs[:count])[0]
        sampled = probs[count:].reshape(count, samples, -1)
        weights = kernel[n - bits.sum(axis=2, dtype=np.intp)]
        lhs, rhs = np.empty((count, n + 1, n + 1)), np.empty((count, n + 1))
        for e, c in enumerate(classes.tolist()):
            design[:, 1:] = bits[e]
            wx = design.T * weights[e]
            lhs[e] = wx @ design
            # A column view, as one example's batch gave: matmul may take
            # another kernel, with other bits, for a contiguous vector.
            rhs[e] = wx @ sampled[e, :, c]
        lhs += LIME_RIDGE * np.eye(n + 1)
        try:
            beta = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise ConfigError(f"surrogate fit is singular beyond ridge rescue: {exc}") from exc
        if not np.isfinite(beta).all():
            raise ConfigError("surrogate fit produced non-finite coefficients")
        out[block] = beta[:, 1:]
    return out


def shap_score_rows(base: ClassifierHandle, xs, grouping: FeatureGrouping,
                    permutations: int = DEFAULT_SHAP_PERMUTATIONS,
                    rng_states=(0,)) -> np.ndarray:
    """Permutation-sampling Shapley estimates against a zero baseline, one
    per row of the (E, d) inputs xs, as an (E, n) array.

    Each order adds groups one at a time and credits each group its marginal
    change in the predicted-class probability. Example e draws its orders
    from stream rng_states[e].

    A block of examples is one evaluate_rows call: the empty coalition,
    which is the zero input for every example, the full ones, which are the
    examples themselves and give their classes, then the coalitions in
    between of each example: those of its P orders, P * (n - 1) rows. The
    gains of the examples whose P * n gains fit in MAX_EXAMPLE_ROWS values go
    to one buffer, which smoothing._atom_means sums, correctly rounded.
    """
    n = grouping.n
    permutations = _int_arg("permutations", permutations, 1,
                            (MAX_EXAMPLE_ROWS - 2) // max(1, n - 1))
    xs, rng_states = _score_inputs(xs, grouping, rng_states)
    index_map = grouping.index_map()
    out = np.empty((len(xs), n))
    # below[r, s - 1]: a group of rank r is in the coalition before step s.
    below = np.arange(n)[:, None] < np.arange(1, n)
    for part in _example_blocks(len(xs), permutations * n, MAX_EXAMPLE_ROWS):
        contrib = np.empty(((part.stop - part.start) * permutations, n))
        # Blocks are sized by the order steps, which bound the gain arrays below
        # as well as the batch; each example's count holds the block's zero row.
        for block in _example_blocks(part.stop - part.start, 2 + permutations * (n - 1)):
            count = block.stop - block.start
            span = slice(block.start * permutations, block.stop * permutations)
            # rank[t, i] is the step at which order t adds group i; the coalition before
            # step s holds raw feature j, keep[j, t, s - 1], when its group ranks below s.
            rank = _sampled_orders(n, permutations, rng_states[part][block]).reshape(
                -1, n).argsort(axis=1)
            rows = np.arange(len(rank))[:, None]
            keep = below.take(rank.T[index_map], axis=0).reshape(
                len(index_map), count, permutations * (n - 1))
            probs = evaluate_rows(base, _masked_batch(xs[part][block], keep, 1))
            # held[t, s] is the batch row of the coalition before step s of order t:
            # the zero row, then masked row t * (n - 1) + s - 1, then its example;
            # as a flat index, at its example's class.
            held = np.concatenate([0 * rows, 1 + count + rows * (n - 1) + np.arange(n - 1),
                                   1 + rows // permutations], axis=1) * probs.shape[1]
            values = probs.take(held + np.repeat(
                top_classes_and_gaps(probs[1:1 + count])[0], permutations)[:, None])
            gains = values[:, 1:] - values[:, :-1]
            contrib[span] = gains.take(rank + rows * n)
        out[part] = smoothing._atom_means(contrib.reshape(-1, permutations, n))
    return out


def _sampled_orders(n: int, permutations: int, rng_state) -> np.ndarray:
    """intp[permutations, n]: one Fisher-Yates shuffle of range(n) per row;
    for a sequence of stream states, one such block per state,
    intp[len, permutations, n].

    Row t swaps position i = n-1, ..., 1 with j = next_below(i + 1), where
    the draw for (t, step) is stream value t * (n - 1) + step; all rows take
    a step's swap at once, at the flat indices at[step] of the (n, rows) transpose.
    """
    block = lcg_block(rng_state, permutations * (n - 1))
    shape = block.shape[:-1] + (permutations, n)
    rows = math.prod(shape[:-1])
    draws = (block >> 32).view(np.int64).reshape(rows, n - 1)
    at = (draws % np.arange(n, 1, -1)).T * rows + np.arange(rows)
    orders = np.repeat(np.arange(n, dtype=np.intp), rows).reshape(n, rows)
    flat = orders.reshape(-1)
    for step, i in enumerate(range(n - 1, 0, -1)):
        picked = flat[at[step]]
        flat[at[step]] = orders[i]
        orders[i] = picked
    return orders.T.reshape(shape)


def topk_binarize(scores: Sequence[float], k: int) -> Mask:
    """Mask selecting the k highest scores, ties going to lower indices."""
    return tuple(topk_mask_rows([scores], k, len(scores))[0].tolist())


def topk_mask_rows(scores, k: int, n: int) -> np.ndarray:
    """topk_binarize of every row of the (E, n) scores, as a uint8 array."""
    k = _int_arg("k", k, 0, n)
    return (score_ranks(scores, n) < k).astype(np.uint8)


def score_ranks(scores, n: int) -> np.ndarray:
    """rank[e, i], the place of group i in example e's order by descending
    score, ties to the lower index, from one stable argsort of the (E, n)
    scores. A score that is not finite has no place and raises ConfigError."""
    for row in scores:
        if len(row) != n:
            raise ConfigError(f"got {len(row)} scores for n={n} groups")
    scores = np.array(scores, dtype=float).reshape(-1, n)
    if not np.isfinite(scores).all():
        e, i = np.argwhere(~np.isfinite(scores))[0]
        raise ConfigError(f"example {e} group {i}: score {float(scores[e, i])!r} is not finite")
    rank = np.empty(scores.shape, dtype=np.intp)
    rank[np.arange(len(rank))[:, None], np.argsort(-scores, axis=1, kind="stable")] = np.arange(n)
    return rank


def greedy_stable_masks(model: SmoothedModel, xs, scores: Sequence,
                        r_inc_target: int, r_dec_target: int) -> tuple[np.ndarray, np.ndarray]:
    """For every row of the (E, d) inputs xs, the shortest prefix of its
    score order (scores[e] for example e, as in score_ranks) that is
    consistent and meets both radius targets, or all-ones when no prefix
    qualifies: the (E, n) uint8 masks and the (E,) bool array of which
    examples met their targets.

    The examples walk their prefixes in lockstep rounds, one
    mus_evaluate_pairs call each, and stop once decided: round 0 sends
    all-ones (prefix n) and prefix 1 of every example, round k the prefixes
    up to 2^k below n, so at most ceil(log2 n) + 1 calls."""
    r_inc_target = _int_arg("r_inc_target", r_inc_target, 0)
    r_dec_target = _int_arg("r_dec_target", r_dec_target, 0)
    if len(scores) != len(xs):
        raise ConfigError(f"got {len(scores)} score rows for {len(xs)} examples")
    n, lam, q = model.grouping.n, model.cfg.lambda_num, model.cfg.q
    rank = score_ranks(scores, n)
    # met[e, L]: prefix L of example e qualifies, for the L sent so far.
    met = np.zeros((len(rank), n + 1), dtype=bool)
    pending, lengths, hi = np.arange(len(rank)), np.array([n, 1]), 1
    while len(pending):
        if len(lengths):
            masks = (rank[pending, None] < lengths[:, None]).astype(np.uint8).reshape(-1, n)
            means = mus_evaluate_pairs(model, xs, np.repeat(pending, len(lengths)), masks)
            classes, gaps = (a.reshape(len(pending), -1) for a in top_classes_and_gaps(means))
            radii = radii_from_gaps(gaps, lam, q)[1]
            if hi == 1:
                # The decremental radius depends on (model, x) alone: all-ones decides it.
                ones_class, dec_met = classes[:, 0], radii[:, 0] >= r_dec_target
            met[pending[:, None], lengths] = ((classes == ones_class[pending, None])
                                              & (radii >= r_inc_target) & dec_met[pending, None])
        pending = pending[~met[pending, :hi + 1].any(axis=1) & dec_met[pending] & (hi < n)]
        lengths, hi = np.arange(hi + 1, min(2 * hi, n - 1) + 1), min(2 * hi, n)
    # The shortest qualifying prefix, or 0 for none, which keeps all-ones.
    found = met.argmax(axis=1)
    return (rank < np.where(found, found, n)[:, None]).astype(np.uint8), found > 0
