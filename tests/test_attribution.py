"""Scorers, top-k selection, and the stable-prefix search."""
from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muscert.attribution import (
    LIME_RIDGE,
    _masked_batch,
    _sampled_orders,
    gradient_score_rows,
    greedy_stable_masks,
    lime_score_rows,
    occlusion_scores,
    score_ranks,
    shap_score_rows,
    topk_binarize,
    topk_mask_rows,
)
from muscert.core import (
    ConfigError,
    FeatureGrouping,
    ones_mask,
)
from muscert.models import LinearSoftmaxModel, random_linear, random_mlp
from muscert.noise import LcgStream, SmoothingConfig, iid_bernoulli_bits
from muscert.smoothing import SmoothedModel

from conftest import ConstantHandle, GradientFreeAdapter, definitional_certificate
from reference import (
    finite_difference_gradient,
    mask_apply,
    mus_evaluate,
    shap_one_example,
    top_class_and_gap,
)


class DyadicAdditiveHandle:
    """Class-0 probability parts are small powers of two, so every subset
    sum and difference is exact in binary floating point."""

    def __init__(self, offset, weights):
        self.offset = offset
        self.weights = tuple(weights)
        self.d = len(self.weights)
        self.m = 2

    def evaluate(self, x):
        p0 = self.offset
        for j, v in enumerate(x):
            if v != 0.0:
                p0 += self.weights[j]
        return (p0, 1.0 - p0)


def _identity_pair():
    base = LinearSoftmaxModel(weights=((1.0, 0.0), (0.0, 1.0)), bias=(0.0, 0.0))
    grouping = FeatureGrouping.trivial(2)
    return base, grouping


def _full_keep(base, grouping):
    """q = lambda_num = 2: every atom is all-ones, so the smoothed model
    is the base classifier evaluated on the masked input."""
    cfg = SmoothingConfig(n=grouping.n, q=2, lambda_num=2, seed=0)
    return SmoothedModel.build(base, grouping, cfg)


# ---------------------------------------------------------------- occlusion

def test_occlusion_on_bare_classifier():
    base, grouping = _identity_pair()
    sv = occlusion_scores(_full_keep(base, grouping), (2.0, 0.0))
    e2 = math.exp(2.0)
    assert abs(sv[0] - (e2 / (e2 + 1) - 0.5)) <= 1e-15
    assert sv[1] == 0.0  # that coordinate is already zero


def test_occlusion_smoothed_at_full_keep_matches_bare():
    base = random_linear(3, 3, 8)
    grouping = FeatureGrouping(groups=((0, 2), (1,)), d=3)
    x = (2.0, -0.5, 0.75)
    c, _ = top_class_and_gap(base.evaluate(x))
    bare = tuple(base.evaluate(x)[c] - base.evaluate(mask_apply(x, alpha, grouping))[c]
                 for alpha in ((0, 1), (1, 0)))
    assert occlusion_scores(_full_keep(base, grouping), x) == bare
    cfg = SmoothingConfig(n=2, q=4, lambda_num=4, seed=4)
    q4 = occlusion_scores(SmoothedModel.build(base, grouping, cfg), x)
    for a, b in zip(q4, bare):
        assert abs(a - b) <= 1e-15


def test_occlusion_zero_input_scores_zero():
    base, grouping = _identity_pair()
    sv = occlusion_scores(_full_keep(base, grouping), (0.0, 0.0))
    assert sv == (0.0, 0.0)


def test_occlusion_recovers_additive_group_effects():
    # Offset 0.5 keeps class 0 on top for every ablation.
    handle = DyadicAdditiveHandle(0.5, (0.125, 0.0625, 0.03125))
    grouping = FeatureGrouping(groups=((0, 2), (1,)), d=3)
    sv = occlusion_scores(_full_keep(handle, grouping), (1.0, 1.0, 1.0))
    assert sv == (0.125 + 0.03125, 0.0625)


# ----------------------------------------------------------------- gradient

def test_gradient_scores_sum_abs_entries_per_group():
    model = random_linear(3, 2, 31)
    grouping = FeatureGrouping(groups=((0, 2), (1,)), d=3)
    x = (0.4, -0.8, 1.2)
    c, _ = top_class_and_gap(model.evaluate(x))
    grad = model.gradient(x, c)
    sv = gradient_score_rows(model, [x], grouping)[0].tolist()
    assert sv == [abs(grad[0]) + abs(grad[2]), abs(grad[1])]


class FixedGradientHandle(ConstantHandle):
    """A constant classifier whose gradient returns a fixed vector."""

    def __init__(self, grad):
        super().__init__((0.25, 0.75), d=3)
        self.grad = grad

    def gradient(self, x, c):
        return self.grad


def test_gradient_scores_check_a_custom_gradient():
    grouping = FeatureGrouping.trivial(3)
    x = (1.0, 2.0, 3.0)
    assert gradient_score_rows(FixedGradientHandle((1.0, -2.0, 0.5)), [x],
                               grouping)[0].tolist() == [1.0, 2.0, 0.5]
    for grad in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0)):
        with pytest.raises(ConfigError,
                           match=rf"^gradient has {len(grad)} entries, expected d=3$"):
            gradient_score_rows(FixedGradientHandle(grad), [x], grouping)
    with pytest.raises(ConfigError, match="^gradient entry 1 is not finite: nan$"):
        gradient_score_rows(FixedGradientHandle((0.0, float("nan"), 1.0)), [x], grouping)


def test_gradient_finite_difference_fallback_is_close():
    model = random_mlp(3, 4, 2, 5)
    x = (0.3, -0.2, 0.9)
    grouping = FeatureGrouping.trivial(3)
    analytic = gradient_score_rows(model, [x], grouping)
    numeric = gradient_score_rows(GradientFreeAdapter(model), [x], grouping)
    assert abs(analytic - numeric).max() <= 1e-6


def test_gradient_finite_differences_equal_the_scalar_loop():
    grouping = FeatureGrouping(groups=((0, 2), (1,)), d=3)
    for model in (random_linear(3, 3, 8), random_mlp(3, 4, 2, 9)):
        x = (0.3, -0.2, 0.9)
        c, _ = top_class_and_gap(model.evaluate(x))
        grad = finite_difference_gradient(model, x, c)
        want = [math.fsum((abs(grad[0]), abs(grad[2]))), abs(grad[1])]
        assert gradient_score_rows(GradientFreeAdapter(model), [x], grouping)[0].tolist() == want


class OverfullHandle(ConstantHandle):
    """(0.9, 0.9) everywhere, with a zero gradient."""

    def __init__(self):
        super().__init__((0.9, 0.9), d=2)

    def gradient(self, x, c):
        return (0.0, 0.0)


class OverfullAwayFromX(ConstantHandle):
    """On contract at x = (1.0, 2.0) only, (0.9, 0.9) at every other input."""

    def __init__(self):
        super().__init__((0.9, 0.9), d=2)

    def evaluate(self, z):
        return (0.5, 0.5) if tuple(z) == (1.0, 2.0) else self.probs


def test_gradient_scores_check_the_probability_contract():
    grouping = FeatureGrouping.trivial(2)
    for handle in (OverfullHandle(), GradientFreeAdapter(OverfullHandle()),
                   OverfullAwayFromX()):
        with pytest.raises(ConfigError, match=r"^probabilities sum to 1\.8, not 1$"):
            gradient_score_rows(handle, [(1.0, 2.0)], grouping)


def test_gradient_scores_of_constant_classifier_are_zero():
    handle = ConstantHandle((0.25, 0.75), d=3)
    sv = gradient_score_rows(handle, [(1.0, 2.0, 3.0)], FeatureGrouping.trivial(3))
    assert sv.tolist() == [[0.0, 0.0, 0.0]]


# --------------------------------------------------------------------- lime

def test_lime_ignores_inactive_groups():
    handle = DyadicAdditiveHandle(0.3125, (0.375, 0.0, 0.0))
    grouping = FeatureGrouping.trivial(3)
    sv = lime_score_rows(handle, [(1.0, 1.0, 1.0)], grouping,
                         samples=256, kernel_width=3.0, rng_states=[5])[0]
    assert abs(sv[0] - 0.375) <= 1e-4
    assert abs(sv[1]) <= 1e-4
    assert abs(sv[2]) <= 1e-4


def _exact_wls_oracle(handle, x, grouping, samples, kernel_width, rng_state):
    """Same surrogate fit, redone in exact rational arithmetic."""
    n = grouping.n
    c, _ = top_class_and_gap(handle.evaluate(x))
    masks = iid_bernoulli_bits(0.5, n, samples, rng_state).tolist()
    rows = []
    targets = []
    weights = []
    for z in masks:
        rows.append([Fraction(1)] + [Fraction(b) for b in z])
        targets.append(Fraction(handle.evaluate(mask_apply(x, z, grouping))[c]))
        dropped = n - sum(z)
        weights.append(Fraction(math.exp(-(dropped * dropped)
                                         / (kernel_width * kernel_width))))
    k = n + 1
    lhs = [[Fraction(0)] * k for _ in range(k)]
    rhs = [Fraction(0)] * k
    for row, y, w in zip(rows, targets, weights):
        for a in range(k):
            rhs[a] += w * row[a] * y
            for b in range(k):
                lhs[a][b] += w * row[a] * row[b]
    ridge = Fraction(LIME_RIDGE)
    for a in range(k):
        lhs[a][a] += ridge
    # Gaussian elimination with exact pivots.
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(lhs[r][col]))
        lhs[col], lhs[pivot] = lhs[pivot], lhs[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = Fraction(1) / lhs[col][col]
        for r in range(k):
            if r == col:
                continue
            factor = lhs[r][col] * inv
            for b in range(col, k):
                lhs[r][b] -= factor * lhs[col][b]
            rhs[r] -= factor * rhs[col]
    return [float(rhs[a] / lhs[a][a]) for a in range(1, k)]


def test_lime_matches_exact_rational_wls():
    handle = random_linear(3, 2, 21)
    grouping = FeatureGrouping.trivial(3)
    x = (0.8, -1.1, 0.4)
    sv = lime_score_rows(handle, [x], grouping, samples=48,
                         kernel_width=3.0, rng_states=[11])[0]
    oracle = _exact_wls_oracle(handle, x, grouping, 48, 3.0, 11)
    for got, want in zip(sv, oracle):
        assert abs(got - want) <= 1e-9


def test_lime_constant_classifier_has_flat_surrogate():
    # The ridge term leaves a sub-1e-6 shadow on a perfectly flat target.
    handle = ConstantHandle((0.5, 0.5), d=3)
    sv = lime_score_rows(handle, [(1.0, 1.0, 1.0)], FeatureGrouping.trivial(3),
                         samples=64, rng_states=[0])
    assert abs(sv).max() <= 1e-6


def test_lime_sample_floor():
    handle = ConstantHandle((0.5, 0.5), d=3)
    with pytest.raises(ConfigError, match=r"^samples must be in \[4, 65535\], got 3$"):
        lime_score_rows(handle, [(1.0, 1.0, 1.0)], FeatureGrouping.trivial(3),
                        samples=3)


def test_lime_kernel_width_must_be_positive():
    handle = ConstantHandle((0.5, 0.5), d=2)
    # A width whose square underflows to 0.0 fails rather than divide by it;
    # NaN fails the real-number rule, rather than the surrogate fit.
    for width in (0.0, -1.5, 1e-170):
        with pytest.raises(ConfigError, match=(
                f"^kernel width must be positive with a nonzero square, got {width}$")):
            lime_score_rows(handle, [(1.0, 1.0)], FeatureGrouping.trivial(2),
                            samples=16, kernel_width=width)
    with pytest.raises(ConfigError, match="^kernel width must be finite, got nan$"):
        lime_score_rows(handle, [(1.0, 1.0)], FeatureGrouping.trivial(2),
                        samples=16, kernel_width=float("nan"))


def test_lime_is_deterministic_in_rng_state():
    handle = random_linear(3, 2, 2)
    grouping = FeatureGrouping.trivial(3)
    x = (1.0, 2.0, 3.0)
    a = lime_score_rows(handle, [x], grouping, samples=32, rng_states=[7])
    b = lime_score_rows(handle, [x], grouping, samples=32, rng_states=[7])
    c = lime_score_rows(handle, [x], grouping, samples=32, rng_states=[8])
    assert a.tobytes() == b.tobytes()
    assert a.tolist() != c.tolist()


# --------------------------------------------------------------------- shap

def test_shap_two_group_closed_form():
    """Over two groups each order credits one of two closed forms, so the
    estimate weighs them by how often each order was drawn."""
    base, grouping = _identity_pair()
    x = (1.5, -0.5)
    c, _ = top_class_and_gap(base.evaluate(x))

    def v(alpha):
        return base.evaluate(mask_apply(x, alpha, grouping))[c]

    first = float((_sampled_orders(2, 16, 5)[:, 0] == 0).mean())  # group 0 added first
    assert 0 < first < 1
    sv = shap_score_rows(base, [x], grouping, 16, [5])[0]
    want0 = first * (v((1, 0)) - v((0, 0))) + (1 - first) * (v((1, 1)) - v((0, 1)))
    want1 = (1 - first) * (v((0, 1)) - v((0, 0))) + first * (v((1, 1)) - v((1, 0)))
    assert abs(sv[0] - want0) <= 1e-15
    assert abs(sv[1] - want1) <= 1e-15


def test_shap_additive_game_credits_exact_weights():
    weights = (0.125, 0.0625, 0.03125)
    handle = DyadicAdditiveHandle(0.5, weights)
    grouping = FeatureGrouping.trivial(3)
    x = (1.0, 1.0, 1.0)
    for permutations, state in ((1, 4), (8, 3)):
        sampled = shap_score_rows(handle, [x], grouping, permutations, [state])
        assert sampled.tolist() == [list(weights)]


def test_shap_efficiency_for_sampled_orders():
    """The gains of every order telescope, so any sample of orders sums to
    p_c(x) - p_c(0), as all n! of them do."""
    model = random_linear(4, 3, 61)
    grouping = FeatureGrouping.trivial(4)
    x = (0.9, -0.4, 1.3, 0.2)
    c, _ = top_class_and_gap(model.evaluate(x))
    full = model.evaluate(x)[c]
    empty = model.evaluate((0.0, 0.0, 0.0, 0.0))[c]
    for permutations, state in ((1, 0), (7, 1), (64, 2)):
        sv = shap_score_rows(model, [x], grouping, permutations, [state])[0]
        assert abs(math.fsum(sv) - (full - empty)) <= 1e-10


@pytest.mark.parametrize("n,state", [(2, 0), (3, 72)])
def test_shap_over_every_order_once_is_the_exact_shapley_value(n, state):
    """A stream state whose n! sampled orders are all distinct gives the
    exact Shapley value, the reference's sum over every order."""
    orders = _sampled_orders(n, math.factorial(n), state)
    assert len(set(map(tuple, orders.tolist()))) == math.factorial(n)
    base, grouping = random_mlp(n, 5, 3, 62), FeatureGrouping.trivial(n)
    x = (1.25, -0.75, 0.5)[:n]
    exact = shap_one_example(base, x, grouping, 1, 0, exhaustive=True)
    assert shap_score_rows(base, [x], grouping, len(orders), [state])[0].tolist() == list(exact)


def test_shap_sampling_is_deterministic():
    model = random_linear(3, 2, 14)
    grouping = FeatureGrouping.trivial(3)
    x = (1.0, -1.0, 0.5)
    a = shap_score_rows(model, [x], grouping, permutations=16, rng_states=[9])
    b = shap_score_rows(model, [x], grouping, permutations=16, rng_states=[9])
    assert a.tobytes() == b.tobytes()


def _scalar_orders(n, permutations, rng_state):
    """The per-permutation Fisher-Yates walk of one stream, one swap at a time."""
    stream = LcgStream(rng_state)
    orders = []
    for _ in range(permutations):
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = stream.next_below(i + 1)
            order[i], order[j] = order[j], order[i]
        orders.append(tuple(order))
    return orders


@pytest.mark.parametrize("n", [1, 2, 16])
@pytest.mark.parametrize("permutations", [1, 64])
def test_shap_orders_equal_scalar_fisher_yates(n, permutations):
    for rng_state in (0, 9, 2**64 - 1):
        got = _sampled_orders(n, permutations, rng_state)
        assert [tuple(row) for row in got.tolist()] == _scalar_orders(
            n, permutations, rng_state)


def test_shap_orders_of_many_states_hold_one_block_per_state():
    states = [0, 9, 2**64 - 1]
    for n in (1, 2, 16):
        got = _sampled_orders(n, 5, states)
        assert got.shape == (len(states), 5, n)
        assert got.tolist() == [_sampled_orders(n, 5, s).tolist() for s in states]


def test_shap_rejects_nonpositive_permutations():
    handle = ConstantHandle((0.5, 0.5), d=2)
    with pytest.raises(ConfigError, match=r"^permutations must be in \[1, 65534\], got 0$"):
        shap_score_rows(handle, [(1.0, 1.0)], FeatureGrouping.trivial(2),
                        permutations=0)



# ------------------------------------------------------------ masked batch

@pytest.mark.parametrize("keep_dtype", [bool, np.uint8])
@pytest.mark.parametrize("zero_rows", [0, 1])
def test_masked_batch_gives_the_bits_of_np_where(zero_rows, keep_dtype):
    # -0.0, a quiet NaN with a payload, both infinities, then ordinary values.
    specials = np.array([0x8000000000000000, 0x7FF8000000001234, 0x7FF0000000000000,
                         0xFFF0000000000000], dtype=np.uint64).view(np.float64)
    pool = np.concatenate([specials, [1.5, -3.25, 0.0, 7e300, -2.0]])
    grouping = FeatureGrouping(groups=((0, 4), (1,), (2, 3, 5), (6, 7, 8)), d=9)
    stream = LcgStream(17)
    xs = np.array([np.roll(pool, e) for e in range(3)])
    bits = np.array([[[stream.next_below(2) for _ in range(grouping.n)]
                      for _ in range(11)] for _ in xs], dtype=np.uint8)
    keep = bits.transpose(2, 0, 1)[grouping.index_map()].astype(keep_dtype)
    batch = _masked_batch(xs, keep, zero_rows)
    masked = np.where(keep, xs.T[:, :, None], 0.0).reshape(grouping.d, -1).T
    want = np.concatenate([np.zeros((zero_rows, grouping.d)), xs, masked])
    assert batch.T.flags.c_contiguous  # the models' input columns
    assert batch.dtype == np.float64 and batch.tobytes() == want.tobytes()
    # Every special value is kept somewhere and dropped (to +0.0) somewhere.
    sources = np.repeat(xs, 11, axis=0).view(np.uint64)
    for value in specials.view(np.uint64):
        got = masked.view(np.uint64)[sources == value]
        assert (got == value).any() and (got == 0).any()


def test_one_shap_block_allocates_nothing_block_sized_but_the_batch():
    """Four examples of 64 features in 16 groups are one SHAP block: a batch
    of 3845 rows, 1.97 MB. The block's peak is about 1.4 batches (the order
    arrays, the keep bits, an eighth of the batch, and the forward pass);
    repeating the examples over their rows and an int64 copy of the keep
    bits took it to 3.2."""
    grouping = FeatureGrouping(groups=tuple(tuple(range(4 * i, 4 * i + 4))
                                            for i in range(16)), d=64)
    base = random_linear(64, 3, 5)
    stream = LcgStream(23)
    xs = np.array([[4.0 * stream.next_unit() - 2.0 for _ in range(64)] for _ in range(4)])
    states = [stream.next_below(1000) for _ in xs]
    batch_bytes = 64 * (1 + 4 + 4 * 64 * 15) * 8
    shap_score_rows(base, xs, grouping, rng_states=states)
    tracemalloc.start()
    try:
        shap_score_rows(base, xs, grouping, rng_states=states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * batch_bytes


# ---------------------------------------------------- selection and prefixes

def test_topk_prefers_lower_index_on_ties():
    assert topk_binarize((0.5, 0.9, 0.5, -1.0), 2) == (1, 1, 0, 0)
    assert topk_binarize((0.5, 0.9, 0.5, -1.0), 3) == (1, 1, 1, 0)


def test_topk_extremes_and_range():
    sv = (0.1, 0.2)
    assert topk_binarize(sv, 0) == (0, 0)
    assert topk_binarize(sv, 2) == (1, 1)
    with pytest.raises(ConfigError, match=r"k must be in \[0, 2\], got 3"):
        topk_binarize(sv, 3)
    with pytest.raises(ConfigError, match=r"k must be in \[0, 2\], got -1"):
        topk_binarize(sv, -1)
    # 2.5 once kept 3 groups and True kept 1.
    for k in (2.5, True, 1.0):
        with pytest.raises(ConfigError, match=f"^k must be an integer, got {k!r}$"):
            topk_mask_rows([(0.1, 0.2, 0.3)], k, 3)
        with pytest.raises(ConfigError, match=f"^k must be an integer, got {k!r}$"):
            topk_binarize(sv, k)


@pytest.mark.parametrize("scores,group,shown", [
    ((1.0, math.nan, 2.0), 1, "nan"), ((math.nan, 1.0, 2.0), 0, "nan"),
    ((1.0, 2.0, -math.inf), 2, "-inf"),
])
def test_topk_rejects_non_finite_scores(scores, group, shown):
    """A NaN has no place in the order: it used to take the place its index
    gave it, so (1, nan, 2) kept group 0 over the higher finite score."""
    error = rf"group {group}: score {shown} is not finite$"
    with pytest.raises(ConfigError, match="^example 0 " + error):
        topk_binarize(scores, 1)
    with pytest.raises(ConfigError, match="^example 1 " + error):
        topk_mask_rows([(0.0, 0.0, 0.0), scores], 1, 3)


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
    data=st.data(),
)
def test_topk_mask_properties(vals, data):
    k = data.draw(st.integers(0, len(vals)))
    mask = topk_binarize(vals, k)
    assert sum(mask) == k
    chosen = [vals[i] for i in range(len(vals)) if mask[i]]
    dropped = [vals[i] for i in range(len(vals)) if not mask[i]]
    if chosen and dropped:
        assert min(chosen) >= max(dropped)


def test_score_ranks_and_topk_masks():
    assert score_ranks([(0.1, 0.3, 0.2)], 3).tolist() == [[2, 0, 1]]
    assert topk_binarize((0.1, 0.3, 0.2), 0) == (0, 0, 0)
    assert topk_binarize((0.1, 0.3, 0.2), 2) == (0, 1, 1)
    assert topk_binarize((0.1, 0.3, 0.2), 3) == (1, 1, 1)
    rows = [(0.1, 0.3, 0.2), (1.0, 1.0, 2.0), (0.0, -0.0, 0.0)]
    assert topk_mask_rows(rows, 2, 3).tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert score_ranks([], 3).shape == (0, 3)


def test_score_rows_must_each_hold_n_scores():
    with pytest.raises(ConfigError, match="^got 2 scores for n=3 groups$"):
        topk_mask_rows([(0.1, 0.2, 0.3), (0.1, 0.2)], 1, 3)


def test_score_ranks_break_ties_low():
    assert score_ranks([(1.0, 1.0, 2.0)], 3).tolist() == [[1, 2, 0]]
    assert score_ranks(np.zeros((2, 4)), 4).tolist() == [[0, 1, 2, 3]] * 2


# ------------------------------------------------------------ greedy search

def _small_smoothed(seed=3):
    base = random_linear(4, 2, seed)
    grouping = FeatureGrouping.trivial(4)
    cfg = SmoothingConfig(n=4, q=4, lambda_num=2, seed=6)
    return SmoothedModel.build(base, grouping, cfg)


def test_greedy_zero_targets_returns_shortest_consistent_prefix():
    model = _small_smoothed()
    x = (1.2, -0.6, 0.9, 0.3)
    scores = occlusion_scores(model, x)
    masks, [met] = greedy_stable_masks(model, [x], [scores], 0, 0)
    assert met
    [mask] = map(tuple, masks.tolist())
    pred, _ = top_class_and_gap(mus_evaluate(model, x, ones_mask(4)))
    shortest = None
    for length in range(1, 5):
        candidate = topk_binarize(scores, length)
        got, _ = top_class_and_gap(mus_evaluate(model, x, candidate))
        if got == pred:
            shortest = candidate
            break
    assert mask == shortest


def test_greedy_unreachable_targets_reports_not_met():
    model = _small_smoothed()
    x = (1.2, -0.6, 0.9, 0.3)
    scores = occlusion_scores(model, x)
    masks, met = greedy_stable_masks(model, [x], [scores], 0, 99)
    assert masks.dtype == np.uint8 and masks.tolist() == [list(ones_mask(4))]
    assert met.tolist() == [False]


def test_greedy_met_masks_pass_independent_recheck():
    # lambda = 1/8 keeps integer radii >= 1 within reach of ordinary gaps.
    checked = 0
    for seed in range(8):
        base = random_linear(4, 2, seed)
        grouping = FeatureGrouping.trivial(4)
        cfg = SmoothingConfig(n=4, q=8, lambda_num=1, seed=6)
        model = SmoothedModel.build(base, grouping, cfg)
        x = (0.8, -0.5, 1.1, -0.2)
        scores = occlusion_scores(model, x)
        masks, [met] = greedy_stable_masks(model, [x], [scores], 1, 1)
        if not met:
            continue
        [mask] = map(tuple, masks.tolist())
        checked += 1
        consistent, r_inc, r_dec = definitional_certificate(model, x, mask)
        assert consistent
        assert r_inc >= 1 and r_dec >= 1
    assert checked >= 1


def test_greedy_rejects_negative_targets():
    model = _small_smoothed()
    with pytest.raises(ConfigError, match="^r_inc_target must be >= 0, got -1$"):
        greedy_stable_masks(model, [(1.0, 1.0, 1.0, 1.0)], [(0.1, 0.2, 0.3, 0.4)], -1, 0)
    with pytest.raises(ConfigError, match="^r_dec_target must be >= 0, got -2$"):
        greedy_stable_masks(model, [(1.0, 1.0, 1.0, 1.0)], [(0.1, 0.2, 0.3, 0.4)], 0, -2)
    # A target of 0.5 once acted as a target of 1.
    for targets, shown in (((0.5, 0), "r_inc_target must be an integer, got 0.5"),
                           ((0, 0.5), "r_dec_target must be an integer, got 0.5"),
                           ((True, 0), "r_inc_target must be an integer, got True")):
        with pytest.raises(ConfigError, match=f"^{shown}$"):
            greedy_stable_masks(model, [(1.0, 1.0, 1.0, 1.0)], [(0.1, 0.2, 0.3, 0.4)], *targets)


