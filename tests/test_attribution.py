"""Scorers, top-k selection, and the stable-prefix search."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muscert.attribution import (
    LIME_RIDGE,
    _sampled_orders,
    ScoreVector,
    gradient_scores,
    greedy_stable_attribution,
    lime_lite_scores,
    occlusion_scores,
    prefix_mask,
    score_ordering,
    shap_lite_scores,
    topk_binarize,
)
from muscert.core import (
    ConfigError,
    FeatureGrouping,
    mask_apply,
    ones_mask,
    popcount,
    top_class_and_gap,
)
from muscert.models import LinearSoftmaxModel, random_linear, random_mlp
from muscert.noise import LcgStream, SmoothingConfig, iid_bernoulli_bits
from muscert.smoothing import SmoothedModel, mus_evaluate, smoothed_predict

from conftest import ConstantHandle, definitional_certificate


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


class GradientFreeAdapter:
    """Hide an analytic gradient so only evaluate() is visible."""

    def __init__(self, inner):
        self._inner = inner
        self.d = inner.d
        self.m = inner.m

    def evaluate(self, x):
        return self._inner.evaluate(x)


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
    assert sv.method == "occlusion"
    assert abs(sv.scores[0] - (e2 / (e2 + 1) - 0.5)) <= 1e-15
    assert sv.scores[1] == 0.0  # that coordinate is already zero


def test_occlusion_smoothed_at_full_keep_matches_bare():
    base = random_linear(3, 3, 8)
    grouping = FeatureGrouping(groups=((0, 2), (1,)), d=3)
    x = (2.0, -0.5, 0.75)
    c, _ = top_class_and_gap(base.evaluate(x))
    bare = tuple(base.evaluate(x)[c] - base.evaluate(mask_apply(x, alpha, grouping))[c]
                 for alpha in ((0, 1), (1, 0)))
    assert occlusion_scores(_full_keep(base, grouping), x).scores == bare
    cfg = SmoothingConfig(n=2, q=4, lambda_num=4, seed=4)
    q4 = occlusion_scores(SmoothedModel.build(base, grouping, cfg), x)
    for a, b in zip(q4.scores, bare):
        assert abs(a - b) <= 1e-15


def test_occlusion_zero_input_scores_zero():
    base, grouping = _identity_pair()
    sv = occlusion_scores(_full_keep(base, grouping), (0.0, 0.0))
    assert sv.scores == (0.0, 0.0)


def test_occlusion_recovers_additive_group_effects():
    # Offset 0.5 keeps class 0 on top for every ablation.
    handle = DyadicAdditiveHandle(0.5, (0.125, 0.0625, 0.03125))
    grouping = FeatureGrouping(groups=((0, 2), (1,)), d=3)
    sv = occlusion_scores(_full_keep(handle, grouping), (1.0, 1.0, 1.0))
    assert sv.scores == (0.125 + 0.03125, 0.0625)


# ----------------------------------------------------------------- gradient

def test_gradient_scores_sum_abs_entries_per_group():
    model = random_linear(3, 2, 31)
    grouping = FeatureGrouping(groups=((0, 2), (1,)), d=3)
    x = (0.4, -0.8, 1.2)
    c, _ = top_class_and_gap(model.evaluate(x))
    grad = model.gradient(x, c)
    sv = gradient_scores(model, x, grouping)
    assert sv.method == "vgrad"
    assert sv.scores == (abs(grad[0]) + abs(grad[2]), abs(grad[1]))


def test_gradient_finite_difference_fallback_is_close():
    model = random_mlp(3, 4, 2, 5)
    x = (0.3, -0.2, 0.9)
    grouping = FeatureGrouping.trivial(3)
    analytic = gradient_scores(model, x, grouping)
    numeric = gradient_scores(GradientFreeAdapter(model), x, grouping)
    for a, b in zip(analytic.scores, numeric.scores):
        assert abs(a - b) <= 1e-6


def test_gradient_scores_of_constant_classifier_are_zero():
    handle = ConstantHandle((0.25, 0.75), d=3)
    sv = gradient_scores(handle, (1.0, 2.0, 3.0), FeatureGrouping.trivial(3))
    assert sv.scores == (0.0, 0.0, 0.0)


# --------------------------------------------------------------------- lime

def test_lime_ignores_inactive_groups():
    handle = DyadicAdditiveHandle(0.3125, (0.375, 0.0, 0.0))
    grouping = FeatureGrouping.trivial(3)
    sv = lime_lite_scores(handle, (1.0, 1.0, 1.0), grouping,
                          samples=256, kernel_width=3.0, rng_state=5)
    assert sv.method == "lime"
    assert abs(sv.scores[0] - 0.375) <= 1e-4
    assert abs(sv.scores[1]) <= 1e-4
    assert abs(sv.scores[2]) <= 1e-4


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
    sv = lime_lite_scores(handle, x, grouping, samples=48,
                          kernel_width=3.0, rng_state=11)
    oracle = _exact_wls_oracle(handle, x, grouping, 48, 3.0, 11)
    for got, want in zip(sv.scores, oracle):
        assert abs(got - want) <= 1e-9


def test_lime_constant_classifier_has_flat_surrogate():
    # The ridge term leaves a sub-1e-6 shadow on a perfectly flat target.
    handle = ConstantHandle((0.5, 0.5), d=3)
    sv = lime_lite_scores(handle, (1.0, 1.0, 1.0), FeatureGrouping.trivial(3),
                          samples=64, rng_state=0)
    for v in sv.scores:
        assert abs(v) <= 1e-6


def test_lime_sample_floor():
    handle = ConstantHandle((0.5, 0.5), d=3)
    with pytest.raises(ConfigError, match=r"need at least n\+1=4 samples, got 3"):
        lime_lite_scores(handle, (1.0, 1.0, 1.0), FeatureGrouping.trivial(3),
                         samples=3)


def test_lime_kernel_width_must_be_positive():
    handle = ConstantHandle((0.5, 0.5), d=2)
    with pytest.raises(ConfigError, match="kernel width must be positive, got 0.0"):
        lime_lite_scores(handle, (1.0, 1.0), FeatureGrouping.trivial(2),
                         samples=16, kernel_width=0.0)


def test_lime_is_deterministic_in_rng_state():
    handle = random_linear(3, 2, 2)
    grouping = FeatureGrouping.trivial(3)
    x = (1.0, 2.0, 3.0)
    a = lime_lite_scores(handle, x, grouping, samples=32, rng_state=7)
    b = lime_lite_scores(handle, x, grouping, samples=32, rng_state=7)
    c = lime_lite_scores(handle, x, grouping, samples=32, rng_state=8)
    assert a == b
    assert a.scores != c.scores


# --------------------------------------------------------------------- shap

def test_shap_two_group_closed_form():
    base, grouping = _identity_pair()
    x = (1.5, -0.5)
    c, _ = top_class_and_gap(base.evaluate(x))

    def v(alpha):
        return base.evaluate(mask_apply(x, alpha, grouping))[c]

    sv = shap_lite_scores(base, x, grouping, exhaustive=True)
    want0 = 0.5 * (v((1, 0)) - v((0, 0))) + 0.5 * (v((1, 1)) - v((0, 1)))
    want1 = 0.5 * (v((0, 1)) - v((0, 0))) + 0.5 * (v((1, 1)) - v((1, 0)))
    assert abs(sv.scores[0] - want0) <= 1e-15
    assert abs(sv.scores[1] - want1) <= 1e-15


def test_shap_additive_game_credits_exact_weights():
    weights = (0.125, 0.0625, 0.03125)
    handle = DyadicAdditiveHandle(0.5, weights)
    grouping = FeatureGrouping.trivial(3)
    x = (1.0, 1.0, 1.0)
    exhaustive = shap_lite_scores(handle, x, grouping, exhaustive=True)
    sampled = shap_lite_scores(handle, x, grouping, permutations=8, rng_state=3)
    assert exhaustive.scores == weights
    assert sampled.scores == weights


def test_shap_efficiency_for_exhaustive_orders():
    model = random_linear(4, 3, 61)
    grouping = FeatureGrouping.trivial(4)
    x = (0.9, -0.4, 1.3, 0.2)
    c, _ = top_class_and_gap(model.evaluate(x))
    sv = shap_lite_scores(model, x, grouping, exhaustive=True)
    full = model.evaluate(x)[c]
    empty = model.evaluate((0.0, 0.0, 0.0, 0.0))[c]
    assert abs(math.fsum(sv.scores) - (full - empty)) <= 1e-10


def test_shap_sampling_is_deterministic():
    model = random_linear(3, 2, 14)
    grouping = FeatureGrouping.trivial(3)
    x = (1.0, -1.0, 0.5)
    a = shap_lite_scores(model, x, grouping, permutations=16, rng_state=9)
    b = shap_lite_scores(model, x, grouping, permutations=16, rng_state=9)
    assert a == b


def _scalar_orders(n, permutations, rng_state):
    """The per-permutation Fisher-Yates walk shap_lite_scores used to take."""
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


def test_shap_rejects_nonpositive_permutations():
    handle = ConstantHandle((0.5, 0.5), d=2)
    with pytest.raises(ConfigError, match="permutations must be >= 1, got 0"):
        shap_lite_scores(handle, (1.0, 1.0), FeatureGrouping.trivial(2),
                         permutations=0)


# ---------------------------------------------------- selection and prefixes

def test_topk_prefers_lower_index_on_ties():
    assert topk_binarize((0.5, 0.9, 0.5, -1.0), 2) == (1, 1, 0, 0)
    assert topk_binarize((0.5, 0.9, 0.5, -1.0), 3) == (1, 1, 1, 0)


def test_topk_extremes_and_range():
    sv = ScoreVector(scores=(0.1, 0.2), method="occlusion")
    assert topk_binarize(sv, 0) == (0, 0)
    assert topk_binarize(sv, 2) == (1, 1)
    with pytest.raises(ConfigError, match=r"k must be in \[0, 2\], got 3"):
        topk_binarize(sv, 3)
    with pytest.raises(ConfigError, match=r"k must be in \[0, 2\], got -1"):
        topk_binarize(sv, -1)


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
    data=st.data(),
)
def test_topk_mask_properties(vals, data):
    k = data.draw(st.integers(0, len(vals)))
    mask = topk_binarize(vals, k)
    assert popcount(mask) == k
    chosen = [vals[i] for i in range(len(vals)) if mask[i]]
    dropped = [vals[i] for i in range(len(vals)) if not mask[i]]
    if chosen and dropped:
        assert min(chosen) >= max(dropped)


def test_score_ordering_and_prefix_mask():
    ordering = score_ordering((0.1, 0.3, 0.2))
    assert ordering == (1, 2, 0)
    assert prefix_mask(ordering, 0, 3) == (0, 0, 0)
    assert prefix_mask(ordering, 2, 3) == (0, 1, 1)
    assert prefix_mask(ordering, 3, 3) == (1, 1, 1)


def test_score_ordering_breaks_ties_low():
    assert score_ordering((1.0, 1.0, 2.0)) == (2, 0, 1)


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
    mask, met = greedy_stable_attribution(model, x, scores, 0, 0)
    assert met
    pred, _ = top_class_and_gap(smoothed_predict(model, x))
    ordering = score_ordering(scores)
    shortest = None
    for length in range(1, 5):
        candidate = prefix_mask(ordering, length, 4)
        got, _ = top_class_and_gap(mus_evaluate(model, x, candidate))
        if got == pred:
            shortest = candidate
            break
    assert mask == shortest


def test_greedy_unreachable_targets_reports_not_met():
    model = _small_smoothed()
    x = (1.2, -0.6, 0.9, 0.3)
    scores = occlusion_scores(model, x)
    mask, met = greedy_stable_attribution(model, x, scores, 0, 99)
    assert mask == ones_mask(4)
    assert not met


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
        mask, met = greedy_stable_attribution(model, x, scores, 1, 1)
        if not met:
            continue
        checked += 1
        consistent, r_inc, r_dec = definitional_certificate(model, x, mask)
        assert consistent
        assert r_inc >= 1 and r_dec >= 1
    assert checked >= 1


def test_greedy_rejects_negative_targets():
    model = _small_smoothed()
    with pytest.raises(ConfigError, match="radius targets must be nonnegative"):
        greedy_stable_attribution(model, (1.0, 1.0, 1.0, 1.0),
                                  (0.1, 0.2, 0.3, 0.4), -1, 0)


# ------------------------------------------------------------- score vector

def test_score_vector_validation():
    with pytest.raises(ConfigError, match="score vector must be non-empty"):
        ScoreVector(scores=(), method="occlusion")
    with pytest.raises(ConfigError, match="score 1 is not finite: nan"):
        ScoreVector(scores=(1.0, float("nan")), method="occlusion")
    with pytest.raises(ConfigError, match="score 0 is not finite: inf"):
        ScoreVector(scores=(float("inf"),), method="occlusion")
