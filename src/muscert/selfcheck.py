"""Built-in verification suites that re-derive every guarantee by brute force.

Each suite generates small random instances, computes ground truth by
exhaustive enumeration or an independent formula, and counts violations.
These are the same checks the test suite runs at larger trial counts; the
command-line entry point exists so a deployed build can re-verify itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attribution import FD_STEP, finite_difference_rows, gradient_scores, shap_lite_scores
from .certify import (
    brute_force_stability_oracle,
    certify_example,
)
from .core import ConfigError, FeatureGrouping, evaluate_rows, top_classes_and_gaps
from .models import MlpModel, random_linear, random_mlp
from .noise import (
    LcgStream,
    SmoothingConfig,
    derive_rng_state,
    enumerate_atoms,
)
from .smoothing import SmoothedModel, masking_equivalence_check, mus_evaluate_many

LIPSCHITZ_SLACK = 1e-9
SHAP_EFFICIENCY_TOL = 1e-10
GRADIENT_FD_TOL = 1e-5


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int
    first_failure_seed: int | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class SelfcheckReport:
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)


def _all_masks(n: int) -> np.ndarray:
    """Every mask over n groups as a (2^n, n) 0/1 array; row `code` holds
    bit i of code in column i."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def _random_x(stream: LcgStream, d: int) -> tuple[float, ...]:
    return tuple(4.0 * stream.next_unit() - 2.0 for _ in range(d))


def _random_instance(trial_seed: int, max_n: int):
    """A small random smoothed model (trivially grouped), an input, and the
    state of their stream after the input, for the suites' further draws."""
    stream = LcgStream(derive_rng_state(trial_seed, 0))
    n = 2 + stream.next_below(max(1, min(max_n, 6) - 1))
    q = (4, 8)[stream.next_below(2)]
    lambda_num = 1 + stream.next_below(q)
    m = 2 + stream.next_below(2)
    base = random_linear(n, m, derive_rng_state(trial_seed, 1))
    grouping = FeatureGrouping.trivial(n)
    cfg = SmoothingConfig(q=q, lambda_num=lambda_num, seed=trial_seed, n=n)
    model = SmoothedModel.build(base, grouping, cfg)
    x = _random_x(stream, n)
    return model, x, stream.state


def _suite(name: str, trials: int, seed: int, fails) -> SuiteResult:
    """Run fails(trial_seed) for trial seeds seed .. seed + trials - 1 and
    count the trials that fail, with the first failing seed."""
    failed = [trial_seed for trial_seed in range(seed, seed + trials) if fails(trial_seed)]
    return SuiteResult(name, trials, len(failed), failed[0] if failed else None)


def check_lqv_marginals(trials: int, seed: int, max_n: int = 8) -> SuiteResult:
    """Every coordinate of the atom set carries exactly lambda_num ones."""
    def fails(trial_seed: int) -> bool:
        stream = LcgStream(derive_rng_state(trial_seed, 0))
        q = 2 + stream.next_below(15)
        lambda_num = 1 + stream.next_below(q)
        n = 1 + stream.next_below(max_n)
        cfg = SmoothingConfig(q=q, lambda_num=lambda_num, seed=trial_seed, n=n)
        return (enumerate_atoms(cfg).sum(axis=0) != lambda_num).any()

    return _suite("lqv_marginals", trials, seed, fails)


def check_lipschitz(trials: int, seed: int, instances: list) -> SuiteResult:
    """Exhaustive pairwise slope bound on the smoothed output over masks."""
    def fails(trial_seed: int) -> bool:
        model, x, _ = instances[trial_seed - seed]
        lam = model.cfg.lambda_num / model.cfg.q
        values = np.array(mus_evaluate_many(model, x, _all_masks(model.grouping.n)))
        return _breaks_lipschitz(values, lam)

    return _suite("lipschitz", trials, seed, fails)


def _breaks_lipschitz(values: np.ndarray, lam: float) -> bool:
    """Some masks a, b and class c have |values[a, c] - values[b, c]| >
    lam * |a xor b|_1 + LIPSCHITZ_SLACK, where row `code` of the (2^n, m)
    table belongs to the mask of _all_masks(n) with that row index."""
    codes = np.arange(len(values))
    dist = np.bitwise_count(codes[:, None] ^ codes[None, :]).astype(float)
    bound = lam * dist + LIPSCHITZ_SLACK
    return bool((np.abs(values[:, None, :] - values[None, :, :]) > bound[:, :, None]).any())


def check_masking_equivalence(trials: int, seed: int, instances: list) -> SuiteResult:
    """Mask-then-average equals pre-mask-then-average, with and without mu."""
    def fails(trial_seed: int) -> bool:
        model, x, state = instances[trial_seed - seed]
        stream = LcgStream(state)
        n = model.grouping.n
        mu = tuple(stream.next_below(2) for _ in range(n))
        masks = _all_masks(n)
        covering = masks[(masks >= np.array(mu, dtype=np.uint8)).all(axis=1)]
        return not (masking_equivalence_check(model, x, masks)
                    and masking_equivalence_check(model.with_mu(mu), x, covering))

    return _suite("masking_equivalence", trials, seed, fails)


def check_soundness(trials: int, seed: int, instances: list) -> SuiteResult:
    """Certified radii never exceed what exhaustive enumeration allows."""
    def fails(trial_seed: int) -> bool:
        model, x, state = instances[trial_seed - seed]
        stream = LcgStream(state)
        phi = tuple(stream.next_below(2) for _ in range(model.grouping.n))
        record = certify_example(model, x, phi, example_id=trial_seed - seed)
        return not (brute_force_stability_oracle(model, x, phi, record.r_inc, "inc")
                    and brute_force_stability_oracle(model, x, phi, record.r_dec, "dec"))

    return _suite("soundness", trials, seed, fails)


def check_shap_efficiency(trials: int, seed: int, max_n: int = 4) -> SuiteResult:
    """Exhaustive-permutation Shapley scores sum to p_c(x) - p_c(0)."""
    def fails(trial_seed: int) -> bool:
        stream = LcgStream(derive_rng_state(trial_seed, 0))
        n = 2 + stream.next_below(min(max_n, 4) - 1)
        m = 2 + stream.next_below(2)
        base = random_linear(n, m, derive_rng_state(trial_seed, 1))
        grouping = FeatureGrouping.trivial(n)
        x = _random_x(stream, n)
        scores = shap_lite_scores(base, x, grouping, permutations=1,
                                  rng_state=trial_seed, exhaustive=True)
        # p(x) in row 0 and p(0) in row 1.
        probs = evaluate_rows(base, np.array([x, (0.0,) * n]))
        c = top_classes_and_gaps(probs[:1])[0][0]
        return abs(math.fsum(scores) - (probs[0, c] - probs[1, c])) > SHAP_EFFICIENCY_TOL

    return _suite("shap_efficiency", trials, seed, fails)


def check_gradient_fd(trials: int, seed: int, max_n: int = 6) -> SuiteResult:
    """Analytic gradients agree with central finite differences.

    An MLP input is redrawn while a hidden pre-activation lies within one
    finite-difference step of the ReLU kink: there the central difference
    straddles the kink and measures neither one-sided slope.
    """
    def fails(trial_seed: int) -> bool:
        stream = LcgStream(derive_rng_state(trial_seed, 0))
        n = 2 + stream.next_below(max(1, min(max_n, 6) - 1))
        m = 2 + stream.next_below(2)
        if stream.next_below(2) == 0:
            base = random_linear(n, m, derive_rng_state(trial_seed, 1))
        else:
            base = random_mlp(n, 4, m, derive_rng_state(trial_seed, 1))
        x = _random_x(stream, n)
        while isinstance(base, MlpModel) and _near_relu_kink(base, x):
            x = _random_x(stream, n)
        # With one feature per group the scores are the absolute gradient.
        analytic = gradient_scores(base, x, FeatureGrouping.trivial(n))
        numeric = np.abs(finite_difference_rows(base, np.array([x]))[0]).tolist()
        return max(abs(a - b) for a, b in zip(analytic, numeric)) > GRADIENT_FD_TOL

    return _suite("gradient_fd", trials, seed, fails)


def _near_relu_kink(base: MlpModel, x: tuple[float, ...]) -> bool:
    """Some |pre_t| <= FD_STEP * sum_k |w1[t][k]|: a one-coordinate step of
    FD_STEP can carry hidden unit t across zero."""
    for row, bias in zip(base.w1, base.b1):
        pre = math.fsum([bias] + [w * v for w, v in zip(row, x)])
        if abs(pre) <= FD_STEP * math.fsum(abs(w) for w in row):
            return True
    return False


def run_selfcheck(max_n: int = 6, trials: int = 20, seed: int = 0) -> SelfcheckReport:
    if max_n > 10:
        raise ConfigError(f"max_n is capped at 10, got {max_n}")
    if max_n < 2:
        raise ConfigError(f"max_n must be >= 2, got {max_n}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    # Built once for the three suites that share them, for this call only.
    instances = [_random_instance(t, max_n) for t in range(seed, seed + trials)]
    suites = (
        check_lqv_marginals(trials, seed, max_n),
        check_lipschitz(trials, seed, instances),
        check_masking_equivalence(trials, seed, instances),
        check_soundness(trials, seed, instances),
        check_shap_efficiency(trials, seed, min(max_n, 4)),
        check_gradient_fd(trials, seed, max_n),
    )
    return SelfcheckReport(suites=suites)
