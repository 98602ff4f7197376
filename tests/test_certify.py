"""Radius arithmetic, consistency, and brute-force oracle agreement."""
from __future__ import annotations

import math

import pytest

from muscert.certify import (
    brute_force_stability_oracle,
    certify_example,
    consistency_check,
    decremental_radius,
    enumerate_perturbation_masks,
    full_stability_check,
    incremental_radius,
    radius_from_gap,
)
from muscert.core import FeatureGrouping, ResourceError
from muscert.models import random_linear
from muscert.noise import LcgStream, SmoothingConfig, derive_rng_state
from muscert.smoothing import SmoothedModel, mus_evaluate

from conftest import ConstantHandle, IndicatorFirstFeature

WORKED_CFG = SmoothingConfig(q=4, lambda_num=2, seed=4, n=2)


def constant_model(probs, n, q, lambda_num):
    handle = ConstantHandle(probs, d=n)
    cfg = SmoothingConfig(q=q, lambda_num=lambda_num, seed=0, n=n)
    return SmoothedModel.build(handle, FeatureGrouping.trivial(n), cfg)


def indicator_model():
    return SmoothedModel.build(IndicatorFirstFeature(),
                               FeatureGrouping.trivial(2), WORKED_CFG)


def random_triple(trial, n_max=6):
    stream = LcgStream(derive_rng_state(trial, 0))
    n = 3 + stream.next_below(n_max - 2)
    q = (4, 8)[stream.next_below(2)]
    lambda_num = 1 + stream.next_below(q)
    m = 2 + stream.next_below(2)
    base = random_linear(n, m, derive_rng_state(trial, 1))
    cfg = SmoothingConfig(q=q, lambda_num=lambda_num, seed=trial, n=n)
    model = SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg)
    x = tuple(4.0 * stream.next_unit() - 2.0 for _ in range(n))
    phi = tuple(stream.next_below(2) for _ in range(n))
    return model, x, phi


@pytest.mark.parametrize("gap,lambda_num,q,expected", [
    (0.5, 1, 8, (2.0, 2)),
    (0.2, 1, 2, (0.2, 0)),
    (1.0, 1, 8, (4.0, 4)),
    (1.0, 1, 2, (1.0, 1)),
    (0.0, 2, 4, (0.0, 0)),
])
def test_radius_from_gap_arithmetic(gap, lambda_num, q, expected):
    real, integer = radius_from_gap(gap, lambda_num, q)
    assert integer == expected[1]
    assert math.isclose(real, expected[0], rel_tol=0, abs_tol=1e-15)


def test_radii_match_gap_formula_on_constant_model():
    model = constant_model((0.75, 0.25), n=3, q=8, lambda_num=1)
    x = (1.0, 1.0, 1.0)
    assert incremental_radius(model, x, (1, 0, 0)) == (2.0, 2)
    assert decremental_radius(model, x) == (2.0, 2)
    one_hot = constant_model((1.0, 0.0), n=3, q=8, lambda_num=1)
    assert decremental_radius(one_hot, x) == (4.0, 4)


def test_consistency_all_ones_always_true():
    for trial in range(10):
        model, x, _phi = random_triple(trial)
        n = model.grouping.n
        assert consistency_check(model, x, tuple([1] * n))


def test_consistency_worked_example():
    model = indicator_model()
    x = (1.0, 1.0)
    assert not consistency_check(model, x, (0, 1))
    assert consistency_check(model, x, (1, 0))


def test_certify_example_record_coherence():
    for trial in range(15):
        model, x, phi = random_triple(trial)
        record = certify_example(model, x, phi, example_id=trial)
        assert record.consistent == (record.pred_class == record.masked_class)
        assert record.r_inc == math.floor(record.r_inc_real)
        assert record.r_dec == math.floor(record.r_dec_real)
        assert record.r_inc >= 0 and record.r_dec >= 0
        assert record.q == model.cfg.q
        assert record.lambda_num == model.cfg.lambda_num
        assert record.mu_mode == "none"
        doc = record.to_json_dict()
        assert doc["lambda"] == record.lambda_num / record.q
        assert doc["example_id"] == trial


def test_certify_example_all_ones_uses_one_gap():
    model, x, _phi = random_triple(4)
    n = model.grouping.n
    record = certify_example(model, x, tuple([1] * n), example_id=0)
    assert record.consistent
    assert record.gap_at_attr == record.gap_at_ones
    assert record.r_inc == record.r_dec


def test_full_keep_rate_certifies_nothing():
    """lambda = 1 halves the gap at most to 0.5, so integer radii are 0."""
    for trial in range(8):
        stream = LcgStream(derive_rng_state(trial, 3))
        n = 3
        base = random_linear(n, 3, derive_rng_state(trial, 4))
        cfg = SmoothingConfig(q=4, lambda_num=4, seed=trial, n=n)
        model = SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg)
        x = tuple(4.0 * stream.next_unit() - 2.0 for _ in range(n))
        record = certify_example(model, x, (1, 0, 1), example_id=trial)
        assert record.r_inc == 0
        assert record.r_dec == 0


def test_enumeration_order_inc_example():
    got = list(enumerate_perturbation_masks((1, 0, 0), 2, "inc"))
    assert got == [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]


def test_enumeration_order_dec_example():
    got = list(enumerate_perturbation_masks((1, 0, 0), 1, "dec"))
    assert got == [(1, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_oracle_radius_zero_is_vacuous():
    model = indicator_model()
    assert brute_force_stability_oracle(model, (1.0, 1.0), (0, 1), 0, "inc")


def test_oracle_guard_rejects_wide_enumerations():
    n = 25
    model = constant_model((0.6, 0.4), n=n, q=4, lambda_num=2)
    x = tuple([1.0] * n)
    phi = tuple([0] * n)
    with pytest.raises(ResourceError):
        brute_force_stability_oracle(model, x, phi, 1, "inc")
    with pytest.raises(ResourceError):
        full_stability_check(model, x, phi)


def test_oracle_rejects_unknown_mode():
    model = indicator_model()
    with pytest.raises(ValueError):
        brute_force_stability_oracle(model, (1.0, 1.0), (1, 0), 0, "sideways")


def test_full_stability_trivial_and_worked_cases():
    model = indicator_model()
    x = (1.0, 1.0)
    assert full_stability_check(model, x, (1, 1))
    assert full_stability_check(model, x, (1, 0))
    assert not full_stability_check(model, x, (0, 0))


def test_certified_radii_pass_oracle():
    """Soundness on a batch of random small instances."""
    for trial in range(60):
        model, x, phi = random_triple(trial)
        record = certify_example(model, x, phi, example_id=trial)
        assert brute_force_stability_oracle(model, x, phi, record.r_inc, "inc"), trial
        assert brute_force_stability_oracle(model, x, phi, record.r_dec, "dec"), trial


def test_inc_and_dec_oracles_compose_to_full_stability():
    checked = 0
    for trial in range(120):
        model, x, phi = random_triple(trial)
        n = model.grouping.n
        k = sum(phi)
        half = math.ceil((n - k) / 2)
        if not brute_force_stability_oracle(model, x, phi, half, "inc"):
            continue
        if not brute_force_stability_oracle(model, x, phi, half, "dec"):
            continue
        # both oracles pass at the composition radius, so classes at phi and
        # at all-ones agree and every superset must follow
        assert full_stability_check(model, x, phi), trial
        checked += 1
    assert checked >= 10


def test_radii_antitone_in_lambda():
    q = 16
    for gap_scaled in range(0, 17):
        gap = gap_scaled / 16
        radii = [radius_from_gap(gap, k, q)[1] for k in range(1, q + 1)]
        assert radii == sorted(radii, reverse=True)


def test_mu_mode_recorded_on_record():
    model, x, phi = random_triple(2)
    with_mu = SmoothedModel(base=model.base, grouping=model.grouping,
                            cfg=model.cfg, atoms=model.atoms, mu=phi)
    record = certify_example(with_mu, x, phi, example_id=0)
    assert record.mu_mode == "phi"


def test_mu_phi_certificates_are_sound_too():
    for trial in range(40):
        model, x, phi = random_triple(trial)
        with_mu = SmoothedModel(base=model.base, grouping=model.grouping,
                                cfg=model.cfg, atoms=model.atoms, mu=phi)
        record = certify_example(with_mu, x, phi, example_id=trial)
        assert brute_force_stability_oracle(with_mu, x, phi, record.r_inc, "inc")
        assert brute_force_stability_oracle(with_mu, x, phi, record.r_dec, "dec")


def test_indicator_certificate_full_record():
    model = indicator_model()
    x = (1.0, 1.0)
    record = certify_example(model, x, (1, 0), example_id=7)
    # g(x, (1,0)) = g(x, 1) = (0.5, 0.5): tied, class 0, gap 0
    assert record.pred_class == 0
    assert record.masked_class == 0
    assert record.consistent
    assert record.gap_at_attr == 0.0
    assert record.gap_at_ones == 0.0
    assert record.r_inc == 0 and record.r_dec == 0


class XorTable:
    """One-hot lookup table on two groups: the class is b0 XOR b1."""

    d = 2
    m = 2

    def evaluate(self, z):
        odd = (z[0] != 0.0) != (z[1] != 0.0)
        return (0.0, 1.0) if odd else (1.0, 0.0)


@pytest.mark.xfail(strict=True, reason="radius_from_gap floors gap*q/(2*lambda_num) "
                   "although the bound is strict, so an exact tie at an integer "
                   "radius is over-claimed")
def test_integer_radius_at_exact_tie_is_not_over_claimed():
    cfg = SmoothingConfig(q=2, lambda_num=1, seed=0, n=2)
    model = SmoothedModel.build(XorTable(), FeatureGrouping.trivial(2), cfg)
    x, phi = (1.0, 1.0), (0, 0)
    # The gap at all-ones is exactly 1, so r_dec = 1 is issued; removing one
    # bit ties the smoothed classes and the tie goes to the other class.
    record = certify_example(model, x, phi, example_id=0)
    assert brute_force_stability_oracle(model, x, phi, record.r_dec, "dec")
