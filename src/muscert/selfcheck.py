"""Built-in verification suites that re-derive every guarantee by brute force.

Each trial builds one small random instance: a smoothed linear model over
trivially grouped features, an input, the exhaustive table of its smoothed
means and a stream state, from which each suite derives its own draws. Each
of the six suites is a predicate on that instance, checked against ground
truth from exhaustive enumeration or an independent formula. Every suite
runs over a block of trials' instances, which are then dropped. The tests
check the same properties on more instances and model kinds; the
command-line entry point exists so a deployed build can re-verify itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attribution import FD_STEP, finite_difference_rows, gradient_score_rows, shap_score_rows
from .certify import certify_example
from .core import FeatureGrouping, _int_arg, evaluate_rows, top_classes_and_gaps
from .models import MlpModel, random_linear, random_mlp
from .noise import LcgStream, SmoothingConfig, derive_rng_state, enumerate_atoms
from .smoothing import EQUIVALENCE_TOL, SmoothedModel, _premasked_means, mus_evaluate_pairs

LIPSCHITZ_SLACK = 1e-9
SHAP_EFFICIENCY_TOL = 1e-10
GRADIENT_FD_TOL = 1e-5
# The most trials one run takes: about three minutes at the 1.5 to 2.3 ms a
# trial measured on one core of a 2-vCPU x86-64 VM.
MAX_TRIALS = 100_000
# The trials whose instances every suite checks before they are dropped:
# memory is bounded by a block, and each suite's code runs a block at a time.
_BLOCK_TRIALS = 64


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
    """A small random smoothed model (trivially grouped), an input, its
    (2^n, m) table of smoothed means under the rows of _all_masks(n), and the
    state of their stream after the input, from which the suites derive theirs."""
    stream = LcgStream(derive_rng_state(trial_seed, 0))
    n = 2 + stream.next_below(max(1, min(max_n, 6) - 1))
    q = (4, 8)[stream.next_below(2)]
    lambda_num = 1 + stream.next_below(q)
    m = 2 + stream.next_below(2)
    base = random_linear(n, m, derive_rng_state(trial_seed, 1))
    cfg = SmoothingConfig(q=q, lambda_num=lambda_num, seed=trial_seed, n=n)
    model = SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg)
    x = _random_x(stream, n)
    masks = _all_masks(n)
    table = mus_evaluate_pairs(model, [x], np.zeros(len(masks), np.intp), masks)
    return model, x, table, stream.state


def check_lqv_marginals(model: SmoothedModel, _x, _table, state: int) -> bool:
    """Every coordinate of the atom set carries exactly lambda_num ones, at
    q in 2..16 and lambda_num drawn from state, over the instance's n groups.
    Column i depends only on the i-th draw of the seed, so a wider n would
    only add columns of the same kind."""
    stream = LcgStream(state)
    q = 2 + stream.next_below(15)
    lambda_num = 1 + stream.next_below(q)
    cfg = SmoothingConfig(q=q, lambda_num=lambda_num, seed=model.cfg.seed, n=model.n)
    return bool((enumerate_atoms(cfg).sum(axis=0) == lambda_num).all())


def check_lipschitz(model: SmoothedModel, _x, table: np.ndarray, _state: int) -> bool:
    """Exhaustive pairwise slope bound on one instance of _random_instance:
    no masks a, b and class c have |table[a, c] - table[b, c]| >
    lam * |a xor b|_1 + LIPSCHITZ_SLACK, with masks read as bit codes."""
    codes = np.arange(len(table))
    dist = np.bitwise_count(codes[:, None] ^ codes[None, :]).astype(float)
    bound = model.cfg.lam * dist + LIPSCHITZ_SLACK
    return not (np.abs(table[:, None, :] - table[None, :, :]) > bound[:, :, None]).any()


def check_masking_equivalence(model: SmoothedModel, x, table: np.ndarray, state: int) -> bool:
    """Mask-then-average equals pre-mask-then-average, with and without a mu
    drawn from state, on one instance of _random_instance. Without mu the
    table is the mask-then-average side; with it, mu enters the driver as
    the call's per-example mus, the one noise-exempt path (certify
    --mu-mode phi runs it), for every mask covering mu."""
    stream = LcgStream(state)
    n = model.grouping.n
    mu = np.array([stream.next_below(2) for _ in range(n)], dtype=np.uint8)
    masks = _all_masks(n)
    covering = masks[(masks >= mu).all(axis=1)]
    shielded = mus_evaluate_pairs(model, [x], np.zeros(len(covering), np.intp), covering, [mu])
    return all((np.abs(means - _premasked_means(model, x, alphas, exempt)) <= EQUIVALENCE_TOL).all()
               for means, alphas, exempt in ((table, masks, None), (shielded, covering, mu)))


def check_soundness(model: SmoothedModel, x, table: np.ndarray, state: int) -> bool:
    """Certified radii at a phi drawn from state never exceed what the table
    allows, on one instance of _random_instance: every mask covering phi
    within r_inc flips of phi has phi's class, and every one within r_dec
    flips of all-ones has the class of all-ones."""
    stream = LcgStream(state)
    phi = tuple(stream.next_below(2) for _ in range(model.grouping.n))
    record = certify_example(model, x, phi, example_id=0)
    codes, classes = np.arange(len(table)), top_classes_and_gaps(table)[0]
    phi_code = sum(bit << i for i, bit in enumerate(phi))
    covering = codes & phi_code == phi_code
    balls = ((phi_code, record.r_inc), (len(table) - 1, record.r_dec))
    return all((classes[covering & (np.bitwise_count(codes ^ anchor) <= radius)]
                == classes[anchor]).all() for anchor, radius in balls)


def check_shap_efficiency(model: SmoothedModel, x, _table, state: int) -> bool:
    """The sampled Shapley scores of the instance's base, one order drawn
    from state, sum to p_c(x) - p_c(0). The gains of every order telescope,
    so efficiency holds for each sampled order as for all n! of them."""
    base, n = model.base, model.grouping.n
    scores = shap_score_rows(base, [x], model.grouping, 1, [state])[0]
    # p(x) in row 0 and p(0) in row 1.
    probs = evaluate_rows(base, np.array([x, (0.0,) * n]))
    c = top_classes_and_gaps(probs[:1])[0][0]
    return abs(math.fsum(scores) - (probs[0, c] - probs[1, c])) <= SHAP_EFFICIENCY_TOL


def check_gradient_fd(model: SmoothedModel, x, _table, state: int) -> bool:
    """Analytic gradients of the instance's base, or on half the states of
    an MLP, agree with central finite differences.

    An MLP input is redrawn from state's stream while a hidden pre-activation
    lies within one finite-difference step of the ReLU kink: there the
    central difference straddles the kink and measures neither one-sided
    slope.
    """
    stream, base, n = LcgStream(state), model.base, model.grouping.n
    if stream.next_below(2):
        base = random_mlp(n, 4, model.m, derive_rng_state(model.cfg.seed, 2))
        while _near_relu_kink(base, x):
            x = _random_x(stream, n)
    # With one feature per group the scores are the absolute gradient.
    analytic = gradient_score_rows(base, [x], model.grouping)
    numeric = np.abs(finite_difference_rows(base, np.array([x])))
    return np.abs(analytic - numeric).max() <= GRADIENT_FD_TOL


def _near_relu_kink(base: MlpModel, x: tuple[float, ...]) -> bool:
    """Some |pre_t| <= FD_STEP * sum_k |w1[t][k]|: a one-coordinate step of
    FD_STEP can carry hidden unit t across zero."""
    return any(abs(math.fsum([bias] + [w * v for w, v in zip(row, x)]))
               <= FD_STEP * math.fsum(map(abs, row)) for row, bias in zip(base.w1, base.b1))


def run_selfcheck(max_n: int = 6, trials: int = 20, seed: int = 0) -> SelfcheckReport:
    max_n, trials = _int_arg("max_n", max_n, 2, 10), _int_arg("trials", trials, 1, MAX_TRIALS)
    seed = _int_arg("seed", seed)
    # Looked up on each call, so that a wrapper on a check_* function sees it.
    suites = {"lqv_marginals": check_lqv_marginals, "lipschitz": check_lipschitz,
              "masking_equivalence": check_masking_equivalence, "soundness": check_soundness,
              "shap_efficiency": check_shap_efficiency, "gradient_fd": check_gradient_fd}
    failed = {name: [] for name in suites}
    for lo in range(seed, seed + trials, _BLOCK_TRIALS):
        seeds = range(lo, min(lo + _BLOCK_TRIALS, seed + trials))
        instances = [_random_instance(trial_seed, max_n) for trial_seed in seeds]
        # Suite k draws from its own stream, derive_rng_state(state, k).
        for k, (name, check) in enumerate(suites.items()):
            failed[name] += [s for s, (model, x, table, state) in zip(seeds, instances)
                             if not check(model, x, table, derive_rng_state(state, k))]
        del instances  # before the next block is built
    return SelfcheckReport(suites=tuple(
        SuiteResult(name, trials, len(seeds), seeds[0] if seeds else None)
        for name, seeds in failed.items()))
