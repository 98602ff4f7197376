"""Radius arithmetic, consistency, and brute-force oracle agreement."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import pytest

from muscert.certify import (
    GAP_MARGIN,
    brute_force_stability_oracle,
    certify_example,
    enumerate_perturbation_masks,
    radius_from_gap,
)
from muscert.core import ConfigError, FeatureGrouping
from muscert.models import random_linear
from muscert.noise import LcgStream, SmoothingConfig, derive_rng_state
from muscert.smoothing import SmoothedModel, mus_evaluate

from conftest import ConstantHandle, IndicatorFirstFeature, definitional_certificate

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
    (0.5, 1, 8, (2.0, 1)),
    (0.2, 1, 2, (0.2, 0)),
    (1.0, 1, 8, (4.0, 3)),
    (1.0, 1, 2, (1.0, 0)),
    (0.0, 2, 4, (0.0, 0)),
    # One ulp above an integer radius is inside the rounding margin; 2^-40 is not.
    (0.5 + 2**-53, 1, 8, (2.0, 1)),
    (0.5 + 2**-40, 1, 8, (2.0 + 2**-38, 2)),
])
def test_radius_from_gap_arithmetic(gap, lambda_num, q, expected):
    real, integer = radius_from_gap(gap, lambda_num, q)
    assert integer == expected[1]
    assert math.isclose(real, expected[0], rel_tol=0, abs_tol=1e-15)


def test_integer_radius_is_exact_around_every_integer_boundary():
    """Largest r >= 0 with 2*lambda_num*r < (gap - GAP_MARGIN)*q, in rationals."""
    for q in (2, 4, 8, 16):
        for lambda_num in range(1, q + 1):
            for k in range(q // lambda_num + 1):
                edge = 2 * lambda_num * k / q
                for gap in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, 2.0),
                            edge + GAP_MARGIN, edge + 2 * GAP_MARGIN):
                    bound = (Fraction(gap) - Fraction(GAP_MARGIN)) * q / (2 * lambda_num)
                    want = max(0, math.ceil(bound) - 1)
                    assert radius_from_gap(gap, lambda_num, q)[1] == want, (gap, lambda_num, q)


def test_radii_match_gap_formula_on_constant_model():
    model = constant_model((0.75, 0.25), n=3, q=8, lambda_num=1)
    x = (1.0, 1.0, 1.0)
    record = certify_example(model, x, (1, 0, 0), example_id=0)
    assert (record.r_inc_real, record.r_inc) == (2.0, 1)
    assert (record.r_dec_real, record.r_dec) == (2.0, 1)
    one_hot = constant_model((1.0, 0.0), n=3, q=8, lambda_num=1)
    record = certify_example(one_hot, x, (1, 0, 0), example_id=0)
    assert (record.r_dec_real, record.r_dec) == (4.0, 3)


def test_consistency_all_ones_always_true():
    for trial in range(10):
        model, x, _phi = random_triple(trial)
        n = model.grouping.n
        assert certify_example(model, x, tuple([1] * n), example_id=trial).consistent


def test_consistency_worked_example():
    model = indicator_model()
    x = (1.0, 1.0)
    assert not certify_example(model, x, (0, 1), example_id=0).consistent
    assert certify_example(model, x, (1, 0), example_id=0).consistent


def test_certify_example_record_coherence():
    for trial in range(15):
        model, x, phi = random_triple(trial)
        record = certify_example(model, x, phi, example_id=trial)
        assert record.consistent == (record.pred_class == record.masked_class)
        lambda_num, q = model.cfg.lambda_num, model.cfg.q
        for gap, r in ((record.gap_at_attr, record.r_inc), (record.gap_at_ones, record.r_dec)):
            assert r == radius_from_gap(gap, lambda_num, q)[1]
            assert 2 * lambda_num * r < gap * q
        assert record.r_inc >= 0 and record.r_dec >= 0
        assert record.q == model.cfg.q
        assert record.lambda_num == model.cfg.lambda_num
        assert record.mu_mode == "none"
        doc = record.to_json_dict()
        assert doc["lambda"] == record.lambda_num / record.q
        assert doc["example_id"] == trial


def test_certify_example_matches_definitional_path():
    """The batch path issues the certificate the q-query path gives."""
    for trial in range(30):
        model, x, phi = random_triple(trial)
        for cert_model in (model, model.with_mu(phi)):
            record = certify_example(cert_model, x, phi, example_id=trial)
            assert ((record.consistent, record.r_inc, record.r_dec)
                    == definitional_certificate(cert_model, x, phi)), trial


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
    with pytest.raises(ConfigError, match="25 free bits exceeds the enumeration guard of 20"):
        brute_force_stability_oracle(model, x, phi, 1, "inc")
    with pytest.raises(ConfigError, match="25 free bits exceeds the enumeration guard of 20"):
        brute_force_stability_oracle(model, x, phi, n, "inc")


def test_oracle_rejects_unknown_mode():
    model = indicator_model()
    with pytest.raises(ValueError):
        brute_force_stability_oracle(model, (1.0, 1.0), (1, 0), 0, "sideways")


def test_full_stability_trivial_and_worked_cases():
    model = indicator_model()
    x = (1.0, 1.0)
    # The inc oracle at radius n enumerates every superset of phi.
    assert brute_force_stability_oracle(model, x, (1, 1), 2, "inc")
    assert brute_force_stability_oracle(model, x, (1, 0), 2, "inc")
    assert not brute_force_stability_oracle(model, x, (0, 0), 2, "inc")


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
        assert brute_force_stability_oracle(model, x, phi, n, "inc"), trial
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


def test_integer_radius_at_exact_tie_is_not_over_claimed():
    cfg = SmoothingConfig(q=2, lambda_num=1, seed=0, n=2)
    model = SmoothedModel.build(XorTable(), FeatureGrouping.trivial(2), cfg)
    x, phi = (1.0, 1.0), (0, 0)
    # The gap at all-ones is exactly 1, so r_dec = 1 is issued; removing one
    # bit ties the smoothed classes and the tie goes to the other class.
    record = certify_example(model, x, phi, example_id=0)
    assert brute_force_stability_oracle(model, x, phi, record.r_dec, "dec")


class OneHotTable:
    """One-hot lookup table: the class is table[i] for the i whose bits
    mark the nonzero inputs, i = sum of 2^j over nonzero z[j]."""

    m = 2

    def __init__(self, table, d):
        self.table = table
        self.d = d

    def evaluate(self, z):
        index = sum(1 << j for j, v in enumerate(z) if v != 0.0)
        return (0.0, 1.0) if self.table[index] else (1.0, 0.0)


def test_lookup_table_radii_survive_brute_force():
    """Every two-class one-hot table on 2-3 groups: exact ties everywhere."""
    for n in (2, 3):
        x = (1.0,) * n
        phis = list(product((0, 1), repeat=n))
        for table in product((0, 1), repeat=2 ** n):
            handle = OneHotTable(table, n)
            for q, lambda_num in ((2, 1), (4, 1), (4, 2), (4, 3)):
                for seed in range(3):
                    cfg = SmoothingConfig(q=q, lambda_num=lambda_num, seed=seed, n=n)
                    model = SmoothedModel.build(handle, FeatureGrouping.trivial(n), cfg)
                    for phi in phis:
                        record = certify_example(model, x, phi, example_id=0)
                        case = (n, table, q, lambda_num, seed, phi)
                        assert brute_force_stability_oracle(
                            model, x, phi, record.r_inc, "inc"), case
                        assert brute_force_stability_oracle(
                            model, x, phi, record.r_dec, "dec"), case
