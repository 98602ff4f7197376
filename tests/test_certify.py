"""Radius arithmetic, consistency, and brute-force oracle agreement."""
from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from muscert import certify, smoothing
from muscert.certify import (
    GAP_MARGIN,
    CertRecord,
    brute_force_stability_oracle,
    certify_example,
    certify_examples,
    enumerate_perturbation_masks,
    radii_from_gaps,
)
from muscert.core import ConfigError, FeatureGrouping
from muscert.models import random_linear
from muscert.noise import MAX_Q, LcgStream, SmoothingConfig, derive_rng_state
from muscert.smoothing import SmoothedModel

from conftest import ConstantHandle, IndicatorFirstFeature, definitional_certificate
from reference import ratio_radius

WORKED_CFG = SmoothingConfig(q=4, lambda_num=2, seed=4, n=2)


def radius_from_gap(gap, lambda_num, q):
    """radii_from_gaps of one gap, as a Python float and int."""
    real, radius = radii_from_gaps([gap], lambda_num, q)
    return float(real[0]), int(radius[0])


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


RADIUS_QS = (2, 3, 4, 7, 8, 16, 33, 64, 1000, 65536)


def _near_thresholds(lambda_num, q):
    """Every float within 3 ulps of each threshold GAP_MARGIN + 2*lambda_num*k/q
    (k >= 1) up to the first past a gap of 1, from exact rationals."""
    gaps = []
    for k in range(1, q // (2 * lambda_num) + 2):
        nearest = float(Fraction(GAP_MARGIN) + Fraction(2 * lambda_num * k, q))
        below = above = nearest
        gaps.append(nearest)
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            gaps += [below, above]
    return gaps


def test_radii_from_gaps_match_the_integer_ratio_oracle():
    """radii_from_gaps equals ratio_radius, real and integer radius, on the
    special gaps, random gaps in [-0.5, 2) and every float within 3 ulps
    of each threshold, for every q of RADIUS_QS and lambda_num up to 12."""
    stream = LcgStream(derive_rng_state(31, 0))
    special = [0.0, -0.0, 1.0, 5e-324, GAP_MARGIN, math.nextafter(GAP_MARGIN, 0.0),
               math.nextafter(GAP_MARGIN, 1.0), 2 * GAP_MARGIN, 0.5, 2.0, -1.0, -5e-324]
    checked = 0
    for q in RADIUS_QS:
        for lambda_num in range(1, min(12, q) + 1):
            gaps = special + [2.5 * stream.next_unit() - 0.5 for _ in range(40)]
            gaps += _near_thresholds(lambda_num, q)
            real, radii = radii_from_gaps(gaps, lambda_num, q)
            want = [ratio_radius(gap, lambda_num, q) for gap in gaps]
            assert real.tolist() == [r for r, _ in want], (q, lambda_num)
            assert list(map(repr, real.tolist())) == [repr(r) for r, _ in want]
            assert radii.tolist() == [r for _, r in want], (q, lambda_num)
            checked += len(gaps)
    assert checked >= 30_000


def test_radii_from_gaps_keep_the_shape_and_grow_their_table(monkeypatch):
    """A 2-D gap array gives 2-D radii equal to its flat ones, and a table
    first built for small gaps grows for larger ones at the same (lambda_num, q)."""
    monkeypatch.setattr(certify, "_THRESHOLDS", {})
    stream = LcgStream(derive_rng_state(31, 1))
    gaps = np.array([[stream.next_unit() for _ in range(3)] for _ in range(50)])
    for lambda_num, q in ((1, 16), (3, 7), (5, 1000)):
        small = radii_from_gaps([0.01], lambda_num, q)[1]
        assert small.tolist() == [ratio_radius(0.01, lambda_num, q)[1]]
        real, radii = radii_from_gaps(gaps, lambda_num, q)
        assert radii.shape == real.shape == gaps.shape
        flat = radii_from_gaps(gaps.ravel(), lambda_num, q)
        assert radii.ravel().tolist() == flat[1].tolist()
        assert real.ravel().tobytes() == flat[0].tobytes()
        assert radii.ravel().tolist() == [ratio_radius(g, lambda_num, q)[1] for g in gaps.ravel()]
    assert radii_from_gaps(np.empty((0, 2)), 2, 16)[1].shape == (0, 2)


@pytest.mark.parametrize("gap", [math.nan, math.inf, -math.inf])
def test_radii_refuse_a_gap_that_is_not_finite(gap):
    with pytest.raises(ConfigError, match="gaps must be finite"):
        radii_from_gaps([0.5, gap], 2, 16)
    with pytest.raises(ConfigError, match="gaps must be finite"):
        radius_from_gap(gap, 2, 16)


def test_radii_stop_at_a_radius_of_max_q():
    """Radii up to MAX_Q are exact; a gap whose radius passes it raises."""
    assert radius_from_gap(MAX_Q + 1.0, 1, 2) == ratio_radius(MAX_Q + 1.0, 1, 2)
    assert radius_from_gap(MAX_Q + 1.0, 1, 2)[1] == MAX_Q
    for gap, q in ((MAX_Q + 2.0, 2), (1e300, 2), (2.1, MAX_Q), (1.7e308, MAX_Q)):
        with pytest.raises(ConfigError, match=f"radius above {MAX_Q}"):
            radius_from_gap(gap, 1, q)


@pytest.mark.parametrize("lambda_num,q,message", [
    (1, 1, "q must be in"), (1, MAX_Q + 1, "q must be in"), (0, 4, "lambda_num must be in"),
    (5, 4, "lambda_num must be in"), (2.0, 4, "lambda_num must be an integer"),
])
def test_radii_take_lambda_num_and_q_by_the_config_rule(lambda_num, q, message):
    with pytest.raises(ConfigError, match=message):
        radii_from_gaps([0.5], lambda_num, q)
    with pytest.raises(ConfigError, match="gaps must be numbers"):
        radii_from_gaps(["a"], 2, 4)


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


def test_oracle_rejects_a_radius_that_is_not_a_count(monkeypatch):
    """A negative radius once enumerated nothing, so the oracle passed
    without smoothing a single mask; 1.5 raised a bare TypeError."""
    model = indicator_model()
    sent = []
    monkeypatch.setattr("muscert.certify.mus_evaluate_pairs",
                        lambda *args: sent.append(args) or smoothing.mus_evaluate_pairs(*args))
    for radius, shown in ((-1, "must be >= 0, got -1"), (1.5, "must be an integer, got 1.5"),
                          (True, "must be an integer, got True")):
        for mode in ("inc", "dec"):
            with pytest.raises(ConfigError, match=f"^radius {shown}$"):
                brute_force_stability_oracle(model, (1.0, 1.0), (1, 0), radius, mode)
            with pytest.raises(ConfigError, match=f"^radius {shown}$"):
                list(enumerate_perturbation_masks((1, 0), radius, mode))
    assert sent == []
    assert brute_force_stability_oracle(model, (1.0, 1.0), (1, 0), np.int64(1), "inc")
    assert len(sent) == 1


def test_certificate_ids_are_python_ints():
    model, x, phi = random_triple(3)
    xs, phis = [x] * 4, [phi] * 4
    want = [json.dumps(r.to_json_dict()) for r in certify_examples(model, xs, phis, range(4))]
    for ids in (np.arange(4), np.arange(4, dtype=np.uint8), [np.int64(e) for e in range(4)]):
        records = certify_examples(model, xs, phis, ids)
        assert all(type(r.example_id) is int for r in records)
        assert [json.dumps(r.to_json_dict()) for r in records] == want
    for ids, shown in (([0, True], "True"), ([0, 2.5], "2.5"), ([2.0, 1], "2.0"),
                       ([0, "1"], "'1'")):
        with pytest.raises(ConfigError, match=f"^example id must be an integer, got {shown}$"):
            certify_examples(model, xs[:2], phis[:2], ids)


def test_oracle_guard_rejects_wide_enumerations():
    """The guard counts the masks of the ball, not the free bits: radius 1
    over 25 free bits is 26 masks, radius 25 is 2^25 and C(60, <= 7) about
    4.4e8, each refused before a mask is smoothed."""
    n = 25
    model = constant_model((0.6, 0.4), n=n, q=4, lambda_num=2)
    x = tuple([1.0] * n)
    phi = tuple([0] * n)
    assert brute_force_stability_oracle(model, x, phi, 1, "inc")
    with pytest.raises(ConfigError, match="^radius 25 over 25 free bits exceeds the "
                                          "enumeration guard of 1048576 masks$"):
        brute_force_stability_oracle(model, x, phi, n, "inc")
    wide = constant_model((0.6, 0.4), n=60, q=4, lambda_num=2)
    with pytest.raises(ConfigError, match="^radius 7 over 60 free bits exceeds"):
        brute_force_stability_oracle(wide, [1.0] * 60, [0] * 60, 7, "dec")


def test_oracle_guard_boundary(monkeypatch):
    """At a guard of 26 masks, radius 1 over 25 free bits (26 masks) passes
    and radius 2 (326 masks) is refused."""
    n = 25
    model = constant_model((0.6, 0.4), n=n, q=4, lambda_num=2)
    monkeypatch.setattr(certify, "ENUMERATION_GUARD_MASKS", 26)
    assert brute_force_stability_oracle(model, [1.0] * n, [0] * n, 1, "dec")
    with pytest.raises(ConfigError, match="^radius 2 over 25 free bits exceeds the "
                                          "enumeration guard of 26 masks$"):
        brute_force_stability_oracle(model, [1.0] * n, [0] * n, 2, "dec")


def test_oracle_rechecks_certificates_with_many_free_groups():
    """At n = 70 with 51 to 63 free groups, the regime of patch
    certificates, the oracle re-checks each radius in both modes."""
    n = 70
    cfg = SmoothingConfig(q=16, lambda_num=1, seed=3, n=n)
    model = SmoothedModel.build(random_linear(n, 3, 5, scale=0.3),
                                FeatureGrouping.trivial(n), cfg)
    stream = LcgStream(derive_rng_state(70, 0))
    radii = set()
    for trial in range(8):
        x = [4.0 * stream.next_unit() - 2.0 for _ in range(n)]
        on = np.argsort([stream.next_unit() for _ in range(n)])[:7 + stream.next_below(13)]
        phi = tuple(int(i in on) for i in range(n))
        assert phi.count(0) > 50
        record = certify_example(model, x, phi, trial)
        assert brute_force_stability_oracle(model, x, phi, record.r_inc, "inc")
        assert brute_force_stability_oracle(model, x, phi, record.r_dec, "dec")
        radii |= {record.r_inc, record.r_dec}
    assert radii == {0, 1}


def test_oracle_rejects_unknown_mode():
    model = indicator_model()
    for mode in ("sideways", "Inc"):
        with pytest.raises(ConfigError, match=f"^mode must be 'inc' or 'dec', got '{mode}'$"):
            brute_force_stability_oracle(model, (1.0, 1.0), (1, 0), 0, mode)


def test_enumeration_rejects_unknown_mode():
    for mode in ("sideways", "Inc"):
        with pytest.raises(ConfigError, match=f"^mode must be 'inc' or 'dec', got '{mode}'$"):
            list(enumerate_perturbation_masks((1, 0, 0), 1, mode))


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
                            cfg=model.cfg, mu=phi)
    record = certify_example(with_mu, x, phi, example_id=0)
    assert record.mu_mode == "phi"


def test_mu_phi_certificates_are_sound_too():
    for trial in range(40):
        model, x, phi = random_triple(trial)
        with_mu = SmoothedModel(base=model.base, grouping=model.grouping,
                                cfg=model.cfg, mu=phi)
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


def test_record_json_line_equals_compact_json_dumps():
    """The one-template line has the bytes of the compact json.dumps of
    to_json_dict: floats as repr at 0, 1, subnormals and long digits, ints
    from 0 past 2^64, both mu modes and both consistent values."""
    floats = (0.0, 1.0, 5e-324, 2.0 ** -1050, 0.1, 1 / 3, 1e16, 2.0 - 2.0 ** -52)
    ints = (0, 7, 2 ** 63, 2 ** 64 - 1, 2 ** 70)
    records = [CertRecord(example_id=ints[k % 5], pred_class=k % 3, masked_class=2,
                          consistent=consistent, gap_at_attr=floats[k % 8],
                          gap_at_ones=floats[(k + 3) % 8], r_inc_real=floats[(k + 5) % 8],
                          r_dec_real=floats[(k + 6) % 8], r_inc=ints[(k + 1) % 5],
                          r_dec=ints[(k + 2) % 5], lambda_num=k % 7 + 1, q=3 * (k % 5) + 8,
                          seed=ints[(k + 3) % 5], mu_mode=mu_mode)
               for k in range(40) for mu_mode in ("none", "phi") for consistent in (True, False)]
    cfg = SmoothingConfig(q=8, lambda_num=3, seed=2 ** 64 - 1, n=5)
    model = SmoothedModel.build(random_linear(5, 3, 2, scale=2.0), FeatureGrouping.trivial(5), cfg)
    stream = LcgStream(derive_rng_state(3, 4))
    xs = np.array([[2 * stream.next_unit() - 1 for _ in range(5)] for _ in range(9)])
    phis = np.array([[stream.next_below(2) for _ in range(5)] for _ in xs], dtype=np.uint8)
    records += certify_examples(model, xs, phis, [2 ** 63 + e for e in range(9)], mus=phis)
    records += certify_examples(model, xs, phis, range(9))
    for record in records:
        values = dataclasses.astuple(record)
        columns = certify._Certificates(*([value] for value in values[:10]), *values[10:])
        assert columns.json_lines() == [json.dumps(record.to_json_dict(), separators=(",", ":"))]
