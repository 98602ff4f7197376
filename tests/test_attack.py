"""Greedy flip search: soundness against certificates and exhaustive truth."""
from __future__ import annotations

from itertools import combinations

import pytest

from muscert.attack import attack_walks
from muscert.attribution import occlusion_scores, topk_binarize
from muscert.certify import certify_example
from muscert.core import (
    ConfigError,
    FeatureGrouping,
    ones_mask,
)
from muscert.models import random_linear, random_mlp
from muscert.noise import LcgStream, SmoothingConfig, derive_rng_state
from muscert.smoothing import SmoothedModel

from reference import greedy_walk, mus_evaluate, top_class_and_gap


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
        _, gap = top_class_and_gap(mus_evaluate(model, x, ones_mask(n)))
        if best_gap is None or gap < best_gap:
            best, best_gap = x, gap
    return model, best


def _walk(model, x, phi, budget, mode):
    """The one walk of attack_walks on the single example x."""
    return attack_walks(model, [x], [0], [phi], [budget], [mode])[0]


def test_zero_budget_finds_nothing():
    model, x = _instance(1)
    phi = (1, 0, 0, 1)
    for result in (_walk(model, x, phi, 0, "inc"), _walk(model, x, phi, 0, "dec")):
        assert not result.found
        assert result.radius == 0
        assert result.witness is None


def test_budget_above_free_bits_is_rejected():
    model, x = _instance(2)
    phi = (1, 0, 0, 1)  # two free bits
    with pytest.raises(ConfigError, match=r"budget 3 outside \[0, 2\] free bits"):
        _walk(model, x, phi, 3, "inc")
    with pytest.raises(ConfigError, match=r"budget 3 outside \[0, 2\] free bits"):
        _walk(model, x, phi, 3, "dec")
    with pytest.raises(ConfigError, match=r"budget -1 outside \[0, 2\] free bits"):
        _walk(model, x, phi, -1, "inc")


def test_witnesses_respect_mode_geometry():
    found_any = False
    for seed in range(12):
        model, x = _instance(seed)
        phi = topk_binarize(occlusion_scores(model, x), 2)
        free = 4 - sum(phi)
        inc = _walk(model, x, phi, free, "inc")
        dec = _walk(model, x, phi, free, "dec")
        if inc.found:
            found_any = True
            assert all(p <= w for p, w in zip(phi, inc.witness))
            assert sum(inc.witness) == sum(phi) + inc.radius
            ref, _ = top_class_and_gap(mus_evaluate(model, x, phi))
            got, _ = top_class_and_gap(mus_evaluate(model, x, inc.witness))
            assert got != ref
        if dec.found:
            found_any = True
            assert all(p <= w for p, w in zip(phi, dec.witness))
            assert sum(dec.witness) == 4 - dec.radius
            ref, _ = top_class_and_gap(mus_evaluate(model, x, ones_mask(4)))
            got, _ = top_class_and_gap(mus_evaluate(model, x, dec.witness))
            assert got != ref
    assert found_any


def test_found_witnesses_exceed_certified_radii():
    """Certified radii are sound: no witness may appear at or under them."""
    for seed in range(40):
        model, x = _instance(seed, lambda_num=2)
        phi = topk_binarize(occlusion_scores(model, x), 2)
        record = certify_example(model, x, phi, example_id=seed)
        free = 4 - sum(phi)
        inc = _walk(model, x, phi, free, "inc")
        dec = _walk(model, x, phi, free, "dec")
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
        ref, _ = top_class_and_gap(mus_evaluate(model, x, ones_mask(n)))
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
        result = _walk(model, x, phi, 5 - sum(phi), mode)
        if truth is None:
            # No flipping mask exists anywhere, so the greedy cannot find one.
            assert not result.found
            continue
        if result.found:
            compared += 1
            assert result.radius >= truth
    assert compared >= 3


@pytest.mark.parametrize("mlp", [False, True])
def test_attacks_equal_the_reference_greedy_walk(mlp):
    outcomes = set()
    for seed in range(8):
        model, x = _instance(seed, n=5, mlp=mlp)
        for phi in ((0, 0, 0, 0, 0), topk_binarize(occlusion_scores(model, x), 2)):
            free = 5 - sum(phi)
            for mode in ("inc", "dec"):
                for budget in (1, free):
                    result = _walk(model, x, phi, budget, mode)
                    want = greedy_walk(model, x, phi, budget, mode)
                    assert (result.found, result.radius, result.witness) == want
                    outcomes.add((result.found, result.radius))
    # Walks that flip at the first step, later, or never.
    assert {found for found, _ in outcomes} == {True, False}
    assert max(radius for found, radius in outcomes if found) > 1


def test_attack_walks_need_one_argument_of_each_kind_per_walk():
    model, x = _instance(4)
    xs = [x]
    phi = (1, 0, 0, 1)
    with pytest.raises(ConfigError, match="^mode must be 'inc' or 'dec', got 'Inc'$"):
        attack_walks(model, xs, [0], [phi], [1], ["Inc"])
    with pytest.raises(ConfigError, match=r"^budget must be an integer, got 1\.5$"):
        attack_walks(model, xs, [0], [phi], [1.5], ["inc"])
    # Example indices that are not integers raise instead of being truncated.
    for index, bad in ((0.6, r"0\.6"), (0.0, r"0\.0"), (False, "False")):
        with pytest.raises(ConfigError, match=f"^example index must be an integer, got {bad}$"):
            attack_walks(model, xs, [index], [phi], [1], ["inc"])
    bad = {
        "budgets short": ([0, 0], [phi, phi], [1], ["inc", "dec"]),
        "budgets long": ([0], [phi], [1, 1], ["inc"]),
        "examples": ([0, 0], [phi], [1], ["inc"]),
        "masks": ([0], [phi, phi], [1], ["inc"]),
        "modes": ([0], [phi], [1], ["inc", "dec"]),
    }
    for examples, phis, budgets, modes in bad.values():
        with pytest.raises(ConfigError, match=(
                f"^need one example, mask, budget and mode per walk, got {len(examples)}, "
                f"{len(phis)}, {len(budgets)} and {len(modes)}$")):
            attack_walks(model, xs, examples, phis, budgets, modes)


def test_attack_is_deterministic():
    model, x = _instance(9)
    phi = (1, 0, 0, 0)
    a = _walk(model, x, phi, 3, "inc")
    b = _walk(model, x, phi, 3, "inc")
    assert a == b


def test_full_budget_greedy_flip_always_terminates_state():
    """With the whole cube reachable the result is found or a full mask."""
    model, x = _instance(3)
    result = _walk(model, x, (0, 0, 0, 0), 4, "inc")
    if not result.found:
        assert result.radius == 4
        assert result.witness is None
