"""vgrad, LIME and SHAP as dataset stages: gradient_score_rows,
lime_score_rows and shap_score_rows.

Each stage sends the rows of every example to the base classifier in
chunks of smoothing.DRIVER_CHUNK rows and then solves or sums per example.
Batching, chunking and skipping SHAP's deduplication must not move a bit,
so every result here is compared for equality, not within a tolerance.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from muscert import smoothing
from muscert.attribution import (
    gradient_score_rows,
    gradient_scores,
    lime_lite_scores,
    lime_score_rows,
    shap_lite_scores,
    shap_score_rows,
)
from muscert.core import ConfigError, FeatureGrouping
from muscert.models import random_linear, random_mlp
from muscert.noise import LcgStream, derive_rng_state

from conftest import ConstantHandle, GradientFreeAdapter
from reference import (
    finite_difference_gradient,
    lime_one_example,
    scalar_gradient,
    scalar_probs,
    shap_one_example,
    top_class_and_gap,
)


class GradientOnly:
    """A built-in model's scalar loops as evaluate and gradient, with no
    evaluate_batch or gradient_batch."""

    def __init__(self, inner):
        self.inner, self.d, self.m = inner, inner.d, inner.m

    def evaluate(self, x):
        return scalar_probs(self.inner, x)

    def gradient(self, x, c):
        return scalar_gradient(self.inner, x, c)


class GradientBatchOnly:
    """A built-in model's evaluate_batch and gradient_batch, and no
    gradient, counting the gradient_batch calls."""

    def __init__(self, inner):
        self.inner, self.d, self.m = inner, inner.d, inner.m
        self.calls = 0

    def evaluate(self, x):
        return scalar_probs(self.inner, x)

    def evaluate_batch(self, z):
        return self.inner.evaluate_batch(z)

    def gradient_batch(self, z, classes):
        self.calls += 1
        return self.inner.gradient_batch(z, classes)


def _case(name):
    """(base, grouping, xs) of one named case, with a zero row among xs."""
    if name == "linear":
        base, grouping = random_linear(5, 3, 41), FeatureGrouping.trivial(5)
    elif name == "mlp-grouped":
        base = random_mlp(7, 6, 3, 42, scale=0.7)
        grouping = FeatureGrouping(groups=((0, 4), (1,), (2, 5, 6), (3,)), d=7)
    elif name == "one-group":
        base, grouping = random_mlp(3, 4, 2, 43), FeatureGrouping(groups=((0, 1, 2),), d=3)
    elif name == "gradient-only":
        base = GradientOnly(random_mlp(5, 6, 3, 47))
        grouping = FeatureGrouping(groups=((0, 3), (1, 2, 4)), d=5)
    elif name == "gradient-batch-only":
        base, grouping = GradientBatchOnly(random_linear(4, 3, 48)), FeatureGrouping.trivial(4)
    else:
        base, grouping = GradientFreeAdapter(random_linear(4, 2, 44)), FeatureGrouping.trivial(4)
    stream = LcgStream(derive_rng_state(45, 0))
    xs = [[2.0 * stream.next_gauss_pair()[0] for _ in range(grouping.d)] for _ in range(6)]
    xs[3] = [0.0] * grouping.d
    return base, grouping, np.array(xs)


CASES = ("linear", "mlp-grouped", "one-group", "evaluate-only")
GRADIENT_CASES = CASES + ("gradient-only", "gradient-batch-only")


def _states(count):
    return [derive_rng_state(11, e) for e in range(count)]


@pytest.mark.parametrize("name", CASES)
def test_lime_rows_equal_one_row_calls_and_the_per_example_reference(name):
    base, grouping, xs = _case(name)
    rows = lime_score_rows(base, xs, grouping, 20, 1.5, _states(len(xs)))
    for x, state, got in zip(xs.tolist(), _states(len(xs)), rows.tolist()):
        assert tuple(got) == lime_lite_scores(base, x, grouping, 20, 1.5, state)
        assert tuple(got) == lime_one_example(base, x, grouping, 20, 1.5, state)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("exhaustive", [False, True])
def test_shap_rows_equal_one_row_calls_and_the_per_example_reference(name, exhaustive):
    base, grouping, xs = _case(name)
    rows = shap_score_rows(base, xs, grouping, 9, _states(len(xs)), exhaustive)
    for x, state, got in zip(xs.tolist(), _states(len(xs)), rows.tolist()):
        assert tuple(got) == shap_lite_scores(base, x, grouping, 9, state, exhaustive)
        assert tuple(got) == shap_one_example(base, x, grouping, 9, state, exhaustive)


def _reference_gradient_scores(base, x, grouping):
    """vgrad of one example on the scalar paths: the class from
    scalar_probs, then scalar_gradient, or finite_difference_gradient for
    a handle with no gradient, and math.fsum of the absolute entries of
    each group."""
    c, _ = top_class_and_gap(scalar_probs(base, x))
    if hasattr(base, "gradient") or hasattr(base, "gradient_batch"):
        grad = scalar_gradient(getattr(base, "inner", base), x, c)
    else:
        grad = finite_difference_gradient(base, x, c)
    return tuple(math.fsum(abs(grad[j]) for j in group) for group in grouping.groups)


# 1 sends one row per evaluate_rows call, 7 splits each finite-difference
# example (9 rows at d = 4) across chunks, 20 puts two examples in a block.
@pytest.mark.parametrize("chunk", [None, 1, 7, 20])
@pytest.mark.parametrize("name", GRADIENT_CASES)
def test_gradient_rows_equal_one_row_calls_and_the_scalar_reference(monkeypatch, name, chunk):
    base, grouping, xs = _case(name)
    if chunk is not None:
        monkeypatch.setattr(smoothing, "DRIVER_CHUNK", chunk)
    rows = gradient_score_rows(base, xs, grouping)
    assert rows.shape == (len(xs), grouping.n)
    for x, got in zip(xs.tolist(), rows.tolist()):
        assert tuple(got) == gradient_scores(base, x, grouping)
        assert tuple(got) == _reference_gradient_scores(base, x, grouping)


def test_gradient_batch_is_one_call_for_the_dataset():
    base, grouping, xs = _case("gradient-batch-only")
    gradient_score_rows(base, xs, grouping)
    assert base.calls == 1


class WrongWidthGradients(GradientBatchOnly):
    def gradient_batch(self, z, classes):
        return np.zeros((len(z), self.d + 1))


@pytest.mark.parametrize("name", GRADIENT_CASES)
def test_gradient_stage_checks_its_inputs(name):
    base, grouping, xs = _case(name)
    with pytest.raises(ConfigError, match=r"^input rows of shape \(6, 2\) are not"):
        gradient_score_rows(base, xs[:, :2], grouping)
    assert gradient_score_rows(base, xs[:0], grouping).shape == (0, grouping.n)


def test_gradient_batch_width_is_checked():
    handle = WrongWidthGradients(random_linear(4, 3, 48))
    with pytest.raises(ConfigError, match=r"^gradient has 5 entries, expected d=4$"):
        gradient_score_rows(handle, np.ones((3, 4)), FeatureGrouping.trivial(4))


class RowCounter:
    """A model's evaluate_batch, counting the rows it is sent."""

    def __init__(self, inner):
        self.inner, self.d, self.m = inner, inner.d, inner.m
        self.rows = 0

    def evaluate(self, x):
        return self.inner.evaluate(x)

    def evaluate_batch(self, z):
        self.rows += len(z)
        return self.inner.evaluate_batch(z)


def test_exhaustive_shap_sends_each_coalition_once():
    n = 7
    base = RowCounter(random_mlp(n, 5, 3, 46))
    grouping = FeatureGrouping.trivial(n)
    stream = LcgStream(derive_rng_state(46, 0))
    xs = np.array([[2.0 * stream.next_gauss_pair()[0] for _ in range(n)] for _ in range(3)])
    rows = shap_score_rows(base, xs, grouping, rng_states=_states(3), exhaustive=True)
    # A block of one example sends the zero row, the example and its 2^n - 2
    # proper nonempty subsets, where its 5040 orders hold 30240 coalitions.
    assert base.rows == 3 * 2 ** n
    for x, got in zip(xs.tolist(), rows.tolist()):
        assert tuple(got) == shap_one_example(base.inner, x, grouping, 1, 0, exhaustive=True)


# 1 sends one row per evaluate_rows call; 7 splits every example's rows (20
# LIME samples, at least 9 SHAP rows) across chunks and chunk boundaries.
@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("name", CASES)
def test_no_chunk_size_moves_a_byte(monkeypatch, name, chunk):
    base, grouping, xs = _case(name)
    states = _states(len(xs))
    want = (lime_score_rows(base, xs, grouping, 20, None, states),
            shap_score_rows(base, xs, grouping, 9, states),
            shap_score_rows(base, xs, grouping, 9, states, exhaustive=True),
            gradient_score_rows(base, xs, grouping))
    monkeypatch.setattr(smoothing, "DRIVER_CHUNK", chunk)
    got = (lime_score_rows(base, xs, grouping, 20, None, states),
           shap_score_rows(base, xs, grouping, 9, states),
           shap_score_rows(base, xs, grouping, 9, states, exhaustive=True),
           gradient_score_rows(base, xs, grouping))
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_stages_check_their_inputs():
    base, grouping, xs = _case("linear")
    for stage in (lime_score_rows, shap_score_rows):
        with pytest.raises(ConfigError, match=r"^got 2 stream states for 6 examples$"):
            stage(base, xs, grouping, 8, rng_states=[0, 1])
        with pytest.raises(ConfigError, match=r"^input rows of shape \(6, 4\) are not"):
            stage(base, xs[:, :4], grouping, 8, rng_states=_states(6))
    assert lime_score_rows(base, xs[:0], grouping, rng_states=[]).shape == (0, 5)
    assert shap_score_rows(base, xs[:0], grouping, rng_states=[]).shape == (0, 5)


@pytest.mark.parametrize("bad", [2.5, True, "4", None])
def test_scorer_counts_must_be_integers(bad):
    handle = ConstantHandle((0.5, 0.5), d=2)
    grouping = FeatureGrouping.trivial(2)
    with pytest.raises(ConfigError, match=rf"^permutations must be an integer, got {bad!r}$"):
        shap_lite_scores(handle, (1.0, 1.0), grouping, permutations=bad)
    with pytest.raises(ConfigError, match=rf"^samples must be an integer, got {bad!r}$"):
        lime_lite_scores(handle, (1.0, 1.0), grouping, samples=bad)
