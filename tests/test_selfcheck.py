"""Selfcheck's batched suites against their per-mask definitions."""
from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest

from muscert import selfcheck, smoothing
from muscert.certify import brute_force_stability_oracle
from muscert.core import ConfigError, FeatureGrouping, ones_mask, top_classes_and_gaps
from muscert.models import random_mlp
from muscert.noise import LcgStream, derive_rng_state, enumerate_atoms
from muscert.selfcheck import LIPSCHITZ_SLACK, _all_masks, _random_instance, check_lipschitz
from muscert.smoothing import SmoothedModel, mus_evaluate_pairs

from reference import mask_apply, masking_equivalence_check, mus_evaluate

COVER_MESSAGE = "equivalence requires alpha to cover the noise-exempt mask mu"


def covers(mu, alpha):
    return all(m <= a for m, a in zip(mu, alpha))


def reference_equivalence(model, x, alphas):
    """The per-alpha check: two definitional q-query averages per mask."""
    n = model.grouping.n
    for alpha in alphas:
        if model.mu is not None and not covers(model.mu, alpha):
            raise ConfigError(COVER_MESSAGE)
        lhs = mus_evaluate(model, x, alpha)
        rhs = mus_evaluate(model, mask_apply(x, alpha, model.grouping), ones_mask(n))
        if [*map(float.hex, lhs)] != [*map(float.hex, rhs)]:
            return False
    return True


def instance(trial_seed):
    """A selfcheck instance, regrouped onto an MLP over 2n raw features on
    odd seeds, with a random mu."""
    model, x, _, state = _random_instance(trial_seed, 6)
    stream = LcgStream(state)
    n = model.n
    if trial_seed % 2:
        grouping = FeatureGrouping(groups=tuple((2 * i, 2 * i + 1) for i in range(n)), d=2 * n)
        base = random_mlp(2 * n, 4, model.m, derive_rng_state(trial_seed, 7))
        model = SmoothedModel.build(base, grouping, model.cfg)
        x = tuple(x) + tuple(-v for v in x)
    mu = tuple(stream.next_below(2) for _ in range(n))
    return model, x, mu


def all_mask_tuples(n):
    return [tuple(row) for row in _all_masks(n).tolist()]


@pytest.mark.parametrize("trial_seed", range(12))
def test_batched_equivalence_agrees_with_per_alpha_reference(trial_seed):
    model, x, mu = instance(trial_seed)
    masks = all_mask_tuples(model.n)
    covering = [alpha for alpha in masks if covers(mu, alpha)]
    with_mu = model.with_mu(mu)
    assert masking_equivalence_check(model, x, masks) == reference_equivalence(model, x, masks)
    assert (masking_equivalence_check(with_mu, x, covering)
            == reference_equivalence(with_mu, x, covering))
    stream = LcgStream(derive_rng_state(trial_seed, 8))
    subset = [alpha for alpha in covering if stream.next_below(2)]
    assert (masking_equivalence_check(with_mu, x, subset)
            == reference_equivalence(with_mu, x, subset))


def test_one_non_covering_alpha_fails_the_batch():
    model, x, _ = instance(3)
    mu = (1,) + (0,) * (model.n - 1)
    with_mu = model.with_mu(mu)
    masks = all_mask_tuples(model.n)
    covering = [alpha for alpha in masks if covers(mu, alpha)]
    uncovered = next(alpha for alpha in masks if not covers(mu, alpha))
    batch = covering[:3] + [uncovered] + covering[3:]
    with pytest.raises(ConfigError, match=COVER_MESSAGE) as batched:
        masking_equivalence_check(with_mu, x, batch)
    with pytest.raises(ConfigError, match=COVER_MESSAGE) as reference:
        reference_equivalence(with_mu, x, [uncovered])
    assert str(batched.value) == str(reference.value)


def test_empty_batch_holds():
    model, x, mu = instance(4)
    assert masking_equivalence_check(model, x, [])
    assert masking_equivalence_check(model.with_mu(mu), x, [])


@pytest.mark.parametrize("ulps,holds", [(1, False), (0, True)])
def test_perturbed_lhs_is_compared_against_an_independent_rhs(monkeypatch, ulps, holds):
    model, x, mu = instance(5)
    masks = all_mask_tuples(model.n)
    real = smoothing._pair_means

    def perturbed(mdl, xs, examples, alphas, mus):
        """Shift class 0 of the last alpha (the all-ones mask) by ulps units
        in the last place: one moves it to the next float up."""
        out = real(mdl, xs, examples, alphas, mus)
        out[-1, 0] += ulps * np.spacing(out[-1, 0])
        return out

    monkeypatch.setattr(smoothing, "_pair_means", perturbed)
    assert masking_equivalence_check(model, x, masks) is holds
    covering = [alpha for alpha in masks if covers(mu, alpha)]
    assert masking_equivalence_check(model.with_mu(mu), x, covering) is holds


def pairwise_violations(values, n, lam):
    """Every (a, b, c) with a < b breaking the slope bound, by the pair loop."""
    masks = all_mask_tuples(n)
    found = []
    for a in range(len(masks)):
        for b in range(a + 1, len(masks)):
            bound = lam * sum(u != v for u, v in zip(masks[a], masks[b])) + LIPSCHITZ_SLACK
            for c in range(values.shape[1]):
                if abs(values[a][c] - values[b][c]) > bound:
                    found.append((a, b, c))
    return found


@pytest.mark.parametrize("trial_seed", range(50))
def test_vectorised_lipschitz_test_matches_pair_loop(trial_seed):
    model, x, table, state = _random_instance(trial_seed, 6)
    n, m = model.n, model.m
    lam = model.cfg.lambda_num / model.cfg.q
    assert np.array_equal(table, mus_evaluate_pairs(model, [x], [0] * (1 << n), _all_masks(n)))
    assert check_lipschitz(model, x, table, state) is True
    assert pairwise_violations(table, n, lam) == []

    # Two neighbouring masks 1.5 * lam apart on one class break exactly one
    # (pair, class); every other pair differs by at most 0.75 * lam.
    stream = LcgStream(derive_rng_state(trial_seed, 9))
    a = stream.next_below(1 << n)
    b = a ^ (1 << stream.next_below(n))
    c = stream.next_below(m)
    tampered = np.zeros((1 << n, m))
    tampered[a, c] = 0.75 * lam
    tampered[b, c] = -0.75 * lam
    assert pairwise_violations(tampered, n, lam) == [(min(a, b), max(a, b), c)]
    assert check_lipschitz(model, x, tampered, state) is False
    tampered[a, c] = 0.0
    tampered[b, c] = lam + LIPSCHITZ_SLACK
    holds = not pairwise_violations(tampered, n, lam)
    assert check_lipschitz(model, x, tampered, state) is holds


@pytest.mark.parametrize("period,failures,first", [(1, 25, 40), (3, 8, 41)])
def test_lqv_marginals_counts_trials_with_a_broken_column(monkeypatch, period, failures,
                                                          first):
    """The marginal suite fails exactly the trials whose atoms miss lambda_num
    ones in one column (every seed, or every third from 41), and names the
    first of them."""
    def broken(cfg):
        atoms = enumerate_atoms(cfg)
        if cfg.seed % period != 41 % period:
            return atoms
        atoms = atoms.copy()
        atoms[:, -1] = 1 - atoms[:, -1]  # q - lambda_num ones
        if 2 * cfg.lambda_num == cfg.q:
            atoms[0, -1] ^= 1
        return atoms

    def lqv_marginals():
        return selfcheck.run_selfcheck(max_n=8, trials=25, seed=40).suites[0]

    assert lqv_marginals().ok
    monkeypatch.setattr(selfcheck, "enumerate_atoms", broken)
    result = lqv_marginals()
    assert (result.trials, result.failures, result.first_failure_seed) == (25, failures, first)


def test_run_selfcheck_builds_each_instance_once_per_call(monkeypatch):
    built = []
    real = selfcheck._random_instance

    def counting(trial_seed, max_n):
        built.append(trial_seed)
        return real(trial_seed, max_n)

    monkeypatch.setattr(selfcheck, "_random_instance", counting)
    for _ in range(2):
        assert selfcheck.run_selfcheck(max_n=4, trials=5, seed=20).ok
    # Once per trial for all six suites, and again by the second call:
    # nothing is kept between calls.
    assert built == list(range(20, 25)) * 2


def test_run_selfcheck_holds_one_block_at_a_time(monkeypatch):
    """When a trial builds its instance, only the instances of the trials
    before it in its block are alive, so memory grows with the block and
    not with the trial count."""
    monkeypatch.setattr(selfcheck, "_BLOCK_TRIALS", 3)
    models, alive = [], []
    real = selfcheck._random_instance

    def spy(trial_seed, max_n):
        alive.append(sum(ref() is not None for ref in models))
        instance = real(trial_seed, max_n)
        models.append(weakref.ref(instance[0]))
        return instance

    monkeypatch.setattr(selfcheck, "_random_instance", spy)
    assert selfcheck.run_selfcheck(max_n=4, trials=8, seed=20).ok
    assert alive == [0, 1, 2, 0, 1, 2, 0, 1]


SUITES = ("lqv_marginals", "lipschitz", "masking_equivalence", "soundness",
          "shap_efficiency", "gradient_fd")


def drawn_mask(model, state):
    """The mask the masking suite (its mu) and the soundness suite (its phi)
    draw first from their stream state."""
    stream = LcgStream(state)
    return tuple(stream.next_below(2) for _ in range(model.n))


def covering_classes(trial_seed, max_n):
    """The classes of the trial's table at the masks covering the phi that
    run_selfcheck's soundness suite draws."""
    model, _, table, state = _random_instance(trial_seed, max_n)
    phi = drawn_mask(model, derive_rng_state(state, SUITES.index("soundness")))
    code = sum(bit << i for i, bit in enumerate(phi))
    return top_classes_and_gaps(table)[0][np.arange(len(table)) & code == code].tolist()


def test_shared_suites_count_failures_and_name_the_first(monkeypatch):
    """The three suites on the shared instances fail exactly the trials whose
    check is broken, and each names the first of them. A table jumped on
    trial seeds 2 mod 3 from 30 breaks the slope bound, and masking
    equivalence too, since the table is compared with the pre-masked means;
    the mu half of masking equivalence fails on seeds 2 mod 4. A certificate
    claiming radius n on seeds 3 mod 5 fails soundness where the masks
    covering phi do not all share a class."""
    real_pairs = selfcheck.mus_evaluate_pairs
    real_premasked = selfcheck._premasked_means
    real_certify = selfcheck.certify_example

    def jumped(model, *args):
        out = real_pairs(model, *args)
        if model.cfg.seed % 3 == 2:
            out[0] += 10.0  # no slope bound of at most n * lambda allows this
        return out

    def shifted(model, x, masks, mu):
        """The pre-masked side of the shielded comparison, off by 1."""
        out = real_premasked(model, x, masks, mu)
        return out + 1.0 if mu is not None and model.cfg.seed % 4 == 2 else out

    def over_claiming(model, x, phi, example_id):
        record = real_certify(model, x, phi, example_id)
        if model.cfg.seed % 5 != 3:
            return record
        return dataclasses.replace(record, r_inc=model.n, r_dec=model.n)

    over_claimed = [seed for seed in range(30, 50) if seed % 5 == 3]
    assert [seed for seed in over_claimed if len(set(covering_classes(seed, 4))) > 1] == [33]
    monkeypatch.setattr(selfcheck, "mus_evaluate_pairs", jumped)
    monkeypatch.setattr(selfcheck, "_premasked_means", shifted)
    monkeypatch.setattr(selfcheck, "certify_example", over_claiming)
    report = selfcheck.run_selfcheck(max_n=4, trials=20, seed=30)
    assert [(s.name, s.trials, s.failures, s.first_failure_seed) for s in report.suites] == [
        ("lqv_marginals", 20, 0, None), ("lipschitz", 20, 6, 32),
        ("masking_equivalence", 20, 10, 30), ("soundness", 20, 1, 33),
        ("shap_efficiency", 20, 0, None), ("gradient_fd", 20, 0, None)]


def test_scorer_and_atom_suites_count_failures_and_name_the_first(monkeypatch):
    """The other three suites, run over the same instances, fail exactly the
    trials whose target is broken, and the three above pass: atoms with a
    wrong column on trial seeds 0 mod 7 from 30, SHAP scores doubled on
    seeds 4 mod 5 and finite differences 1e-3 off on seeds 1 mod 6. Each
    scorer suite calls its target once per trial, in trial order."""
    real_atoms = selfcheck.enumerate_atoms
    calls = {"shap": iter(range(30, 50)), "fd": iter(range(30, 50))}

    def wrong_column(cfg):
        atoms = real_atoms(cfg)
        if cfg.seed % 7:
            return atoms
        atoms = atoms.copy()
        atoms[:, -1] = 1 - atoms[:, -1]  # q - lambda_num ones
        if 2 * cfg.lambda_num == cfg.q:
            atoms[0, -1] ^= 1
        return atoms

    real_shap, real_fd = selfcheck.shap_score_rows, selfcheck.finite_difference_rows
    monkeypatch.setattr(selfcheck, "enumerate_atoms", wrong_column)
    monkeypatch.setattr(selfcheck, "shap_score_rows", lambda *args: real_shap(*args) * (
        2.0 if next(calls["shap"]) % 5 == 4 else 1.0))
    monkeypatch.setattr(selfcheck, "finite_difference_rows", lambda *args: real_fd(*args) + (
        1e-3 if next(calls["fd"]) % 6 == 1 else 0.0))
    report = selfcheck.run_selfcheck(max_n=4, trials=20, seed=30)
    assert [(s.name, s.trials, s.failures, s.first_failure_seed) for s in report.suites] == [
        ("lqv_marginals", 20, 3, 35), ("lipschitz", 20, 0, None),
        ("masking_equivalence", 20, 0, None), ("soundness", 20, 0, None),
        ("shap_efficiency", 20, 4, 34), ("gradient_fd", 20, 4, 31)]


def test_table_soundness_matches_the_oracle(monkeypatch):
    """On 300 instances, the soundness suite's verdict on each table ball
    (one radius shifted by 0, 1 or 2 past the certificate's, the other 0)
    equals brute_force_stability_oracle's at that radius, and enough of the
    verdicts are rejections that the balls are not vacuous."""
    real_certify = selfcheck.certify_example
    radii = {}

    def claiming(*args, **kwargs):
        return dataclasses.replace(real_certify(*args, **kwargs), **radii)

    monkeypatch.setattr(selfcheck, "certify_example", claiming)
    rejections = 0
    for trial_seed in range(300):
        instance = _random_instance(trial_seed, 6)
        model, x, _, state = instance
        phi = drawn_mask(model, state)
        record = real_certify(model, x, phi, 0)
        for shift in range(3):
            for mode, radius in (("inc", record.r_inc), ("dec", record.r_dec)):
                radii.update(r_inc=0, r_dec=0)
                radii[f"r_{mode}"] = radius + shift
                oracle = brute_force_stability_oracle(model, x, phi, radius + shift, mode)
                assert selfcheck.check_soundness(*instance) is oracle, (trial_seed, mode, shift)
                rejections += not oracle
    assert rejections >= 100


def test_selfcheck_smooths_three_batches_per_trial(monkeypatch):
    """A pass calls the driver's kernel 3 times per trial: the table, the mu
    half of masking equivalence and the certificate."""
    calls = []
    real = smoothing._pair_means

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(smoothing, "_pair_means", counting)
    assert selfcheck.run_selfcheck(max_n=8, trials=300, seed=3300).ok
    assert len(calls) == 900


def test_random_instance_state_follows_x():
    """The stream state after n, q, lambda_num, m and the n inputs: where
    the suites derive their streams from."""
    for trial_seed in range(30):
        model, _, _, state = _random_instance(trial_seed, 6)
        stream = LcgStream(derive_rng_state(trial_seed, 0))
        for _ in range(4 + model.n):
            stream.next_u64()
        assert state == stream.state


def test_each_suite_draws_from_its_own_stream(monkeypatch):
    """run_selfcheck hands suite k the state derive_rng_state(state, k) of
    each instance, so the masking suite's mu and the soundness suite's phi,
    once the same draws, differ on some trials."""
    seen = {}
    for name in ("masking_equivalence", "soundness"):
        def spy(model, x, table, state, real=getattr(selfcheck, f"check_{name}"), name=name):
            seen.setdefault(name, []).append(state)
            return real(model, x, table, state)

        monkeypatch.setattr(selfcheck, f"check_{name}", spy)
    assert selfcheck.run_selfcheck(max_n=6, trials=20, seed=0).ok
    instances = [_random_instance(trial_seed, 6) for trial_seed in range(20)]
    for name, states in seen.items():
        assert states == [derive_rng_state(state, SUITES.index(name))
                          for _, _, _, state in instances]
    pairs = [(drawn_mask(model, mu_state), drawn_mask(model, phi_state)) for (model, *_), mu_state,
             phi_state in zip(instances, seen["masking_equivalence"], seen["soundness"])]
    assert sum(mu != phi for mu, phi in pairs) >= 10


def test_masking_suite_checks_the_per_example_mus_path(monkeypatch):
    """The shielded half of the masking suite sends its mu as the driver's
    per-example mus, the path certify --mu-mode phi runs: a driver that drops
    them fails the suite on every trial whose mu changes some atom (nonzero,
    and lambda_num < q), and on none of the others."""
    state_index = SUITES.index("masking_equivalence")
    trials = []
    for trial_seed in range(12):
        model, x, table, state = _random_instance(trial_seed, 6)
        trials.append((model, x, table, derive_rng_state(state, state_index)))
    assert all(selfcheck.check_masking_equivalence(*trial) for trial in trials)
    real = smoothing._pair_means
    monkeypatch.setattr(smoothing, "_pair_means", lambda model, xs, examples, alphas, mus,
                        memo=None: real(model, xs, examples, alphas, None, memo))
    exposed = [any(drawn_mask(model, state)) and model.cfg.lambda_num < model.cfg.q
               for model, _, _, state in trials]
    assert any(exposed)
    assert [not selfcheck.check_masking_equivalence(*trial) for trial in trials] == exposed
