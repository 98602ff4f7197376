"""Smoothed evaluation: exactness, equivalence, and the leakage demo."""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muscert.core import (
    ConfigError,
    FeatureGrouping,
    mask_array,
    ones_mask,
)
from muscert.models import random_linear
from muscert.noise import LcgStream, SmoothingConfig, derive_rng_state, enumerate_atoms
from muscert.smoothing import SmoothedModel, mus_evaluate_pairs

from reference import (
    additive_leakage_demo,
    mask_and,
    mask_apply,
    masking_equivalence_check,
    mus_evaluate,
    rmus_estimate,
    scalar_probs,
)

WORKED_CFG = SmoothingConfig(q=4, lambda_num=2, seed=4, n=2)


class CountingHandle:
    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d
        self.m = inner.m
        self.calls = 0

    def evaluate(self, x):
        self.calls += 1
        return scalar_probs(self.inner, x)


class BrokenHandle:
    d = 2
    m = 2

    def evaluate(self, x):
        return (0.9, 0.9)


def build_indicator_model(handle):
    return SmoothedModel.build(handle, FeatureGrouping.trivial(2), WORKED_CFG)


def random_model(trial, n, q, lambda_num, m=3):
    base = random_linear(n, m, derive_rng_state(trial, 1))
    cfg = SmoothingConfig(q=q, lambda_num=lambda_num, seed=trial, n=n)
    return SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg)


def random_input(trial, n):
    stream = LcgStream(derive_rng_state(trial, 2))
    return tuple(4.0 * stream.next_unit() - 2.0 for _ in range(n))


def all_masks(n):
    return [tuple(bits) for bits in product((0, 1), repeat=n)]


def test_worked_example_halves(indicator_handle):
    model = build_indicator_model(indicator_handle)
    x = (1.0, 1.0)
    assert mus_evaluate(model, x, (1, 1)) == (0.5, 0.5)
    assert mus_evaluate(model, x, (1, 0)) == (0.5, 0.5)
    assert mus_evaluate(model, x, (0, 1)) == (0.0, 1.0)
    assert mus_evaluate_pairs(model, [x], [0], [(1, 1)]).tolist() == [[0.5, 0.5]]


def test_exactly_q_base_calls(indicator_handle):
    counting = CountingHandle(indicator_handle)
    model = build_indicator_model(counting)
    mus_evaluate(model, (1.0, 1.0), (1, 1))
    assert counting.calls == WORKED_CFG.q


def test_full_keep_rate_recovers_base():
    """lambda_num = q leaves every atom all-ones, so smoothing is identity."""
    for trial in range(10):
        n = 3 + trial % 4
        base = random_linear(n, 3, derive_rng_state(trial, 1))
        cfg = SmoothingConfig(q=8, lambda_num=8, seed=trial, n=n)
        model = SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg)
        x = random_input(trial, n)
        smoothed = mus_evaluate(model, x, ones_mask(n))
        direct = base.evaluate(x)
        assert all(abs(a - b) <= 1e-15 for a, b in zip(smoothed, direct))


def test_protecting_everything_ignores_alpha():
    model = SmoothedModel.build(
        random_linear(3, 2, 5), FeatureGrouping.trivial(3),
        SmoothingConfig(q=4, lambda_num=1, seed=0, n=3), mu=(1, 1, 1),
    )
    x = (0.3, -1.0, 2.0)
    expected = model.base.evaluate(x)
    for alpha in all_masks(3):
        got = mus_evaluate(model, x, alpha)
        assert all(abs(a - b) <= 1e-15 for a, b in zip(got, expected))


def test_mus_evaluate_matches_independent_re_enumeration():
    """Fraction-exact recomputation of the atom average stays within 1e-12."""
    for trial in range(5):
        n, q, lambda_num = 4, 8, 3
        model = random_model(trial, n, q, lambda_num)
        x = random_input(trial, n)
        grouping = model.grouping
        for alpha in [(1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, 0)]:
            got = mus_evaluate(model, x, alpha)
            totals = [Fraction(0)] * model.m
            for atom in enumerate_atoms(model.cfg).tolist():
                eff = mask_and(alpha, atom)
                p = model.base.evaluate(mask_apply(x, eff, grouping))
                for c in range(model.m):
                    totals[c] += Fraction(p[c])
            exact = [t / q for t in totals]
            assert all(abs(g - float(e)) <= 1e-12 for g, e in zip(got, exact))


def test_dimension_errors():
    model = random_model(0, 3, 4, 2)
    with pytest.raises(ConfigError, match="input length 2 != d=3"):
        mus_evaluate(model, (1.0, 2.0), (1, 1, 1))
    with pytest.raises(ConfigError, match=r"^a mask must be 3 entries of 0 or 1, got \(1, 1\)$"):
        mus_evaluate(model, (1.0, 2.0, 3.0), (1, 1))


# Batches of alphas, each with the mask that the rule names in its error.
BAD_ALPHAS = [
    ([(1, 1, 1), (1, 1)], (1, 1)),                  # ragged
    ([(1, 1)], (1, 1)),                             # wrong width
    ([(1, 1, 1), (0, 2, 1)], (0, 2, 1)),            # 2
    ([(1, -1, 0)], (1, -1, 0)),                     # -1
    ([(1, float("nan"), 0)], (1, float("nan"), 0)),
    ([(1, float("inf"), 0)], (1, float("inf"), 0)),
    ([(1, 2**70, 0)], (1, 2**70, 0)),
    ([(0.5, 1, 0)], (0.5, 1, 0)),                   # not read as 0
    ([(1, 1, 1), (1, 0.9, 0)], (1, 0.9, 0)),        # nor as 1 past a good mask
    ([(1, 1 + 2**-52, 0)], (1, 1 + 2**-52, 0)),
    ((1, 1, 1), 1),                                 # one mask, not a batch
    ([(1, None, 0)], (1, None, 0)),
]


@pytest.mark.parametrize("alphas,bad", [
    pytest.param(alphas, bad, id=f"alphas{i}") for i, (alphas, bad) in enumerate(BAD_ALPHAS)])
def test_mus_evaluate_pairs_rejects_alphas_by_the_mask_rule(alphas, bad):
    """The mask rule refuses each of these batches as ConfigError naming its
    first bad mask, in mask_array and mus_evaluate_pairs alike: ragged or
    narrow batches, entries that are not exactly 0 or 1, and a mask that is
    no sequence."""
    model = random_model(0, 3, 4, 2)
    x = (1.0, 2.0, 3.0)
    message = f"a mask must be 3 entries of 0 or 1, got {bad!r}"
    for call in (lambda: mask_array(alphas, 3),
                 lambda: mus_evaluate_pairs(model, [x], [0] * len(alphas), alphas)):
        with pytest.raises(ConfigError) as err:
            call()
        assert str(err.value) == message


def test_mus_evaluate_pairs_reads_alphas_by_the_mask_rule():
    model = random_model(0, 3, 4, 2)
    x = (1.0, 2.0, 3.0)
    assert mus_evaluate_pairs(model, [x], [], []).shape == (0, model.m)
    assert (mus_evaluate_pairs(model, [x], [0, 0], [(1.0, 0, True), (0.0, 1, 0)]).tolist()
            == [list(mus_evaluate(model, x, (1, 0, 1))), list(mus_evaluate(model, x, (0, 1, 0)))])


def test_non_simplex_base_output_aborts():
    model = SmoothedModel.build(
        BrokenHandle(), FeatureGrouping.trivial(2),
        SmoothingConfig(q=4, lambda_num=2, seed=0, n=2),
    )
    with pytest.raises(ConfigError, match="probabilities sum to 1.8, not 1"):
        mus_evaluate(model, (1.0, 1.0), (1, 1))


def test_equivalence_on_worked_example(indicator_handle):
    model = build_indicator_model(indicator_handle)
    assert masking_equivalence_check(model, (1.0, 1.0), [(0, 1)])
    assert masking_equivalence_check(model, (1.0, 1.0), [(1, 1)])


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_equivalence_holds_everywhere_without_mu(trial):
    n = 2 + trial % 4
    model = random_model(trial, n, 4, 1 + trial % 4)
    x = random_input(trial, n)
    assert masking_equivalence_check(model, x, all_masks(n))


def test_equivalence_with_mu_requires_covering_alpha():
    n = 4
    base = random_linear(n, 2, derive_rng_state(9, 1))
    cfg = SmoothingConfig(q=8, lambda_num=2, seed=9, n=n)
    mu = (1, 0, 0, 1)
    model = SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg, mu=mu)
    x = random_input(9, n)
    for alpha in all_masks(n):
        if all(m <= a for m, a in zip(mu, alpha)):
            assert masking_equivalence_check(model, x, [alpha])
        else:
            with pytest.raises(ConfigError, match="equivalence requires alpha to cover"):
                masking_equivalence_check(model, x, [alpha])


def test_rmus_degenerate_rates(indicator_handle):
    grouping = FeatureGrouping.trivial(2)
    x = (1.0, 1.0)
    alpha = (1, 1)
    keep_all = rmus_estimate(indicator_handle, grouping, x, alpha, 1.0, 50, 0)
    assert keep_all == indicator_handle.evaluate(x)
    drop_all = rmus_estimate(indicator_handle, grouping, x, alpha, 0.0, 50, 0)
    assert drop_all == indicator_handle.evaluate((0.0, 0.0))


def test_rmus_matches_exhaustive_iid_expectation(indicator_handle):
    """n=2 indicator at keep rate 1/2: the 4-mask average is (0.5, 0.5)."""
    grouping = FeatureGrouping.trivial(2)
    estimate = rmus_estimate(indicator_handle, grouping, (1.0, 1.0), (1, 1),
                             0.5, 20000, rng_state=1)
    assert abs(estimate[0] - 0.5) < 0.02
    assert abs(estimate[1] - 0.5) < 0.02


def test_rmus_weighted_oracle_on_linear_model():
    n = 3
    base = random_linear(n, 2, derive_rng_state(21, 1))
    grouping = FeatureGrouping.trivial(n)
    x = random_input(21, n)
    lam = 0.25
    expected = [Fraction(0)] * 2
    for s in all_masks(n):
        weight = Fraction(1, 4) ** sum(s) * Fraction(3, 4) ** (n - sum(s))
        p = base.evaluate(mask_apply(x, s, grouping))
        for c in range(2):
            expected[c] += weight * Fraction(p[c])
    estimate = rmus_estimate(base, grouping, x, (1, 1, 1), lam, 20000, rng_state=5)
    assert all(abs(e - float(t)) < 0.02 for e, t in zip(estimate, expected))


def test_rmus_is_deterministic():
    base = random_linear(3, 2, 4)
    grouping = FeatureGrouping.trivial(3)
    x = (0.5, -0.5, 1.0)
    a = rmus_estimate(base, grouping, x, (1, 1, 1), 0.5, 500, 11)
    b = rmus_estimate(base, grouping, x, (1, 1, 1), 0.5, 500, 11)
    assert a == b


def test_additive_leakage_demo_strict_inequality():
    for n in (1, 3, 6):
        report = additive_leakage_demo(n)
        assert report.additive_lhs == 1.0
        assert report.additive_rhs == 0.0
        assert report.additive_leaks
        assert report.additive_lhs > report.additive_rhs + 0.1
        assert report.multiplicative_matches
        assert abs(report.multiplicative_lhs - report.multiplicative_rhs) <= 1e-12


def test_build_validates_shapes():
    base = random_linear(3, 2, 0)
    good = SmoothingConfig(q=4, lambda_num=2, seed=0, n=3)
    with pytest.raises(ConfigError, match="grouping covers d=4 raw features, model expects 3"):
        SmoothedModel.build(base, FeatureGrouping.trivial(4), good)
    bad_mu = (1, 0)
    with pytest.raises(ConfigError, match=r"^a mask must be 3 entries of 0 or 1, got \(1, 0\)$"):
        SmoothedModel.build(base, FeatureGrouping.trivial(3), good, mu=bad_mu)


@pytest.mark.parametrize("construct", [
    SmoothedModel.build,
    lambda base, grouping, cfg: SmoothedModel(base=base, grouping=grouping, cfg=cfg),
], ids=["build", "constructor"])
def test_both_constructors_check_d_and_n(construct):
    """A directly built model runs build's checks too, instead of failing in
    numpy or at its first evaluation."""
    base = random_linear(3, 2, 1)
    cfg = SmoothingConfig(q=4, lambda_num=1, seed=0, n=5)
    with pytest.raises(ConfigError, match="^smoothing config is over n=5 groups, grouping has 3$"):
        construct(base, FeatureGrouping.trivial(3), cfg)
    with pytest.raises(ConfigError, match="^grouping covers d=5 raw features, model expects 3$"):
        construct(base, FeatureGrouping.trivial(5), cfg)


def test_grouped_smoothing_masks_whole_groups(indicator_handle):
    """With both raw features in one group, one mask bit controls them both."""
    grouping = FeatureGrouping(groups=((0, 1),), d=2)
    cfg = SmoothingConfig(q=4, lambda_num=2, seed=4, n=1)
    model = SmoothedModel.build(indicator_handle, grouping, cfg)
    x = (1.0, 1.0)
    kept = mus_evaluate(model, x, (1,))
    # two of four atoms keep the group, the other two zero feature 0
    assert kept == (0.5, 0.5)
    assert mus_evaluate(model, x, (0,)) == (0.0, 1.0)
    assert mus_evaluate_pairs(model, [x], [0], [(1,)]).tolist() == [list(kept)]
    assert masking_equivalence_check(model, x, [(0,)])
