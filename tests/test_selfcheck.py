"""Selfcheck's batched suites against their per-mask definitions."""
from __future__ import annotations

import numpy as np
import pytest

from muscert import selfcheck, smoothing
from muscert.core import ConfigError, FeatureGrouping, ones_mask
from muscert.models import random_mlp
from muscert.noise import LcgStream, derive_rng_state, enumerate_atoms
from muscert.selfcheck import LIPSCHITZ_SLACK, _all_masks, _breaks_lipschitz, _random_instance
from muscert.smoothing import (
    EQUIVALENCE_TOL,
    SmoothedModel,
    masking_equivalence_check,
    mus_evaluate_many,
)

from reference import mask_apply, mus_evaluate

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
        if not all(abs(a - b) <= EQUIVALENCE_TOL for a, b in zip(lhs, rhs)):
            return False
    return True


def instance(trial_seed):
    """A selfcheck instance, regrouped onto an MLP over 2n raw features on
    odd seeds, with a random mu."""
    model, x, state = _random_instance(trial_seed, 6)
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


@pytest.mark.parametrize("shift,holds", [(1e-11, False), (EQUIVALENCE_TOL / 4, True)])
def test_perturbed_lhs_is_compared_against_an_independent_rhs(monkeypatch, shift, holds):
    model, x, mu = instance(5)
    masks = all_mask_tuples(model.n)
    real = mus_evaluate_many

    def perturbed(mdl, point, alphas):
        """Shift class 0 of the last alpha (the all-ones mask) by shift."""
        out = real(mdl, point, alphas)
        out[-1] = (out[-1][0] + shift,) + out[-1][1:]
        return out

    monkeypatch.setattr(smoothing, "mus_evaluate_many", perturbed)
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
    model, x, _ = _random_instance(trial_seed, 6)
    n, m = model.n, model.m
    lam = model.cfg.lambda_num / model.cfg.q
    values = np.array(mus_evaluate_many(model, x, _all_masks(n)))
    assert _breaks_lipschitz(values, lam) is bool(pairwise_violations(values, n, lam)) is False

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
    assert _breaks_lipschitz(tampered, lam)
    tampered[a, c] = 0.0
    tampered[b, c] = lam + LIPSCHITZ_SLACK
    assert _breaks_lipschitz(tampered, lam) is bool(pairwise_violations(tampered, n, lam))


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

    assert selfcheck.check_lqv_marginals(25, 40, 8).ok
    monkeypatch.setattr(selfcheck, "enumerate_atoms", broken)
    result = selfcheck.check_lqv_marginals(25, 40, 8)
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
    # Once per trial for the three suites that share them, and again by the
    # second call: nothing is kept between calls.
    assert built == list(range(20, 25)) * 2


def test_random_instance_state_follows_x():
    """The stream state after n, q, lambda_num, m and the n inputs: where
    the masking_equivalence suite draws mu and the soundness suite phi."""
    for trial_seed in range(30):
        model, _, state = _random_instance(trial_seed, 6)
        stream = LcgStream(derive_rng_state(trial_seed, 0))
        for _ in range(4 + model.n):
            stream.next_u64()
        assert state == stream.state
