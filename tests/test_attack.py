"""Greedy flip search: soundness against certificates and exhaustive truth."""
from __future__ import annotations

from itertools import combinations

import pytest

from muscert.attack import attack_decremental, attack_incremental
from muscert.attribution import occlusion_scores, topk_binarize
from muscert.certify import certify_example
from muscert.core import (
    ConfigError,
    FeatureGrouping,
    mask_leq,
    popcount,
    top_class_and_gap,
)
from muscert.models import random_linear, random_mlp
from muscert.noise import LcgStream, SmoothingConfig, derive_rng_state
from muscert.smoothing import SmoothedModel, mus_evaluate, smoothed_predict


def _instance(seed, n=4, q=8, lambda_num=4, mlp=False, tries=8):
    """Model plus the nearest-to-boundary input of a few candidates.

    Low-gap inputs keep the flip search from being vacuous: a confident
    example rarely changes class under any mask perturbation.
    """
    base = (random_mlp(n, 5, 2, seed) if mlp else random_linear(n, 3, seed))
    grouping = FeatureGrouping.trivial(n)
    cfg = SmoothingConfig(n=n, q=q, lambda_num=lambda_num, seed=seed + 1)
    model = SmoothedModel.build(base, grouping, cfg)
    stream = LcgStream(derive_rng_state(seed, 7))
    best, best_gap = None, None
    for _ in range(tries):
        x = tuple(3.0 * stream.next_unit() - 1.5 for _ in range(n))
        _, gap = top_class_and_gap(smoothed_predict(model, x))
        if best_gap is None or gap < best_gap:
            best, best_gap = x, gap
    return model, best


def test_zero_budget_finds_nothing():
    model, x = _instance(1)
    phi = (1, 0, 0, 1)
    for result in (attack_incremental(model, x, phi, 0),
                   attack_decremental(model, x, phi, 0)):
        assert not result.found
        assert result.radius == 0
        assert result.witness is None
        assert result.trace == ()


def test_budget_above_free_bits_is_rejected():
    model, x = _instance(2)
    phi = (1, 0, 0, 1)  # two free bits
    with pytest.raises(ConfigError, match=r"budget 3 outside \[0, 2\] free bits"):
        attack_incremental(model, x, phi, 3)
    with pytest.raises(ConfigError, match=r"budget 3 outside \[0, 2\] free bits"):
        attack_decremental(model, x, phi, 3)
    with pytest.raises(ConfigError, match=r"budget -1 outside \[0, 2\] free bits"):
        attack_incremental(model, x, phi, -1)


def test_witnesses_respect_mode_geometry():
    found_any = False
    for seed in range(12):
        model, x = _instance(seed)
        phi = topk_binarize(occlusion_scores(model, x), 2)
        free = 4 - popcount(phi)
        inc = attack_incremental(model, x, phi, free)
        dec = attack_decremental(model, x, phi, free)
        if inc.found:
            found_any = True
            assert mask_leq(phi, inc.witness)
            assert popcount(inc.witness) == popcount(phi) + inc.radius
            ref, _ = top_class_and_gap(mus_evaluate(model, x, phi))
            got, _ = top_class_and_gap(mus_evaluate(model, x, inc.witness))
            assert got != ref
        if dec.found:
            found_any = True
            assert mask_leq(phi, dec.witness)
            assert popcount(dec.witness) == 4 - dec.radius
            ref, _ = top_class_and_gap(smoothed_predict(model, x))
            got, _ = top_class_and_gap(mus_evaluate(model, x, dec.witness))
            assert got != ref
    assert found_any


def test_found_witnesses_exceed_certified_radii():
    """Certified radii are sound: no witness may appear at or under them."""
    for seed in range(40):
        model, x = _instance(seed, lambda_num=2)
        phi = topk_binarize(occlusion_scores(model, x), 2)
        record = certify_example(model, x, phi, example_id=seed)
        free = 4 - popcount(phi)
        inc = attack_incremental(model, x, phi, free)
        dec = attack_decremental(model, x, phi, free)
        if inc.found:
            assert inc.radius > record.r_inc
        if dec.found:
            assert dec.radius > record.r_dec


def _exhaustive_min_flip(model, x, phi, mode):
    """Smallest number of flips that changes the class, by brute force."""
    n = model.grouping.n
    if mode == "inc":
        ref, _ = top_class_and_gap(mus_evaluate(model, x, phi))
        free = [i for i in range(n) if phi[i] == 0]
        build = lambda subset: tuple(
            1 if (phi[i] == 1 or i in subset) else 0 for i in range(n)
        )
    else:
        ref, _ = top_class_and_gap(smoothed_predict(model, x))
        free = [i for i in range(n) if phi[i] == 0]
        build = lambda subset: tuple(
            0 if i in subset else 1 for i in range(n)
        )
    for k in range(1, len(free) + 1):
        for subset in combinations(free, k):
            got, _ = top_class_and_gap(mus_evaluate(model, x, build(subset)))
            if got != ref:
                return k
    return None


@pytest.mark.parametrize("mode", ["inc", "dec"])
def test_greedy_radius_bounds_exhaustive_minimum(mode):
    compared = 0
    for seed in range(30):
        model, x = _instance(seed, n=5, mlp=(seed % 2 == 0))
        phi = topk_binarize(occlusion_scores(model, x), 2)
        truth = _exhaustive_min_flip(model, x, phi, mode)
        attack = attack_incremental if mode == "inc" else attack_decremental
        result = attack(model, x, phi, 5 - popcount(phi))
        if truth is None:
            # No flipping mask exists anywhere, so the greedy cannot find one.
            assert not result.found
            continue
        if result.found:
            compared += 1
            assert result.radius >= truth
    assert compared >= 3


def test_trace_records_argmin_choice():
    for seed in range(6):
        model, x = _instance(seed)
        phi = (0, 0, 0, 0)
        result = attack_incremental(model, x, phi, 4)
        for step in result.trace:
            best = min(step.candidates, key=lambda pair: (pair[1], pair[0]))
            assert (step.chosen_index, step.chosen_margin) == best


def test_attack_is_deterministic():
    model, x = _instance(9)
    phi = (1, 0, 0, 0)
    a = attack_incremental(model, x, phi, 3)
    b = attack_incremental(model, x, phi, 3)
    assert a == b


def test_full_budget_greedy_flip_always_terminates_state():
    """With the whole cube reachable the result is found or a full mask."""
    model, x = _instance(3)
    result = attack_incremental(model, x, (0, 0, 0, 0), 4)
    if not result.found:
        assert result.radius == 4
        assert result.witness is None
