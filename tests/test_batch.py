"""Batch evaluation core: bit-exact against the single-input paths."""
from __future__ import annotations

import hashlib
import re
from itertools import product

import numpy as np
import pytest

from muscert.certify import brute_force_stability_oracle
from muscert.core import ConfigError, FeatureGrouping, evaluate_rows
from muscert.models import MlpModel, random_linear, random_mlp
from muscert.noise import LcgStream, SmoothingConfig, derive_rng_state, enumerate_atoms
from muscert.smoothing import SmoothedModel, mus_evaluate_many

from conftest import ConstantHandle
from reference import mask_and, mask_or, mus_evaluate, scalar_probs, validate_logits

# sha256 of save_model(fit_logistic(...)) for the conftest fixtures, as
# written by the per-example training loop the batch trainer replaced.
DESK_MODEL_SHA256 = "7577fca1d2ca3074c93d877ac093047d07e2bbd08150186fffe183f9010ff880"
SMALL_MODEL_SHA256 = "ad006df8a5479baa90258cd8611825c5f923d2c055a569d6e845786d2c297b88"


class RowLoopHandle:
    """A classifier with evaluate only, counting its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d
        self.m = inner.m
        self.calls = 0

    def evaluate(self, x):
        self.calls += 1
        return scalar_probs(self.inner, x)


class BatchOnly:
    """A handle whose batch output is the given callable's."""

    def __init__(self, d, m, batch):
        self.d, self.m = d, m
        self.evaluate_batch = batch


def _inputs(stream, k, d):
    """Rows mixing negatives, positives, +0.0 and -0.0."""
    pool = (0.0, -0.0)
    return np.array([[pool[stream.next_below(2)] if stream.next_below(4) == 0
                      else 6.0 * stream.next_unit() - 3.0 for _ in range(d)]
                     for _ in range(k)])


def _mask(stream, n):
    return tuple(stream.next_below(2) for _ in range(n))


def _assert_rows_equal(model, inputs):
    """evaluate_batch against the scalar loops of tests/reference.py, and
    evaluate, its one-row call, against both."""
    batch = model.evaluate_batch(inputs)
    assert batch.shape == (len(inputs), model.m)
    for z, row in zip(inputs.tolist(), batch.tolist()):
        assert tuple(row) == scalar_probs(model, tuple(z)) == model.evaluate(tuple(z))


@pytest.mark.parametrize("builder", [
    lambda t: random_linear(7, 3, derive_rng_state(t, 0), scale=3.0),
    lambda t: random_mlp(7, 5, 4, derive_rng_state(t, 0), scale=3.0),
])
def test_evaluate_batch_matches_evaluate_bit_for_bit(builder):
    for trial in range(20):
        stream = LcgStream(derive_rng_state(trial, 1))
        _assert_rows_equal(builder(trial), _inputs(stream, 40, 7))


def test_evaluate_batch_at_exact_zero_preactivation():
    model = MlpModel(w1=((1.0, -1.0), (0.5, 0.25)), b1=(0.0, -0.75),
                     w2=((2.0, -1.0), (-2.0, 1.0)), b2=(0.125, 0.0))
    # Both hidden pre-activations are exactly 0 on the first row, the first
    # one on the second row too.
    inputs = np.array([[1.0, 1.0], [-2.0, -2.0], [3.0, -1.5], [-0.0, 0.0]])
    _assert_rows_equal(model, inputs)


def test_mus_evaluate_many_matches_mus_evaluate():
    for trial in range(12):
        stream = LcgStream(derive_rng_state(trial, 2))
        n = 2 + stream.next_below(8)
        q = (2, 4, 8, 16)[stream.next_below(4)]
        cfg = SmoothingConfig(q=q, lambda_num=1 + stream.next_below(q), seed=trial, n=n)
        base = (random_linear(n, 3, trial) if trial % 2
                else random_mlp(n, 4, 2, trial))
        model = SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg)
        x = tuple(_inputs(stream, 1, n)[0].tolist())
        alphas = [_mask(stream, n) for _ in range(9)]
        for smoothed in (model, model.with_mu(_mask(stream, n))):
            assert (mus_evaluate_many(smoothed, x, alphas)
                    == [mus_evaluate(smoothed, x, a) for a in alphas])


def test_mus_evaluate_many_with_grouped_features():
    grouping = FeatureGrouping(groups=((0, 4), (1,), (2, 3, 5), (6,)), d=7)
    cfg = SmoothingConfig(q=8, lambda_num=3, seed=5, n=4)
    model = SmoothedModel.build(random_mlp(7, 6, 3, 9), grouping, cfg, mu=(0, 1, 0, 0))
    x = (0.5, -1.25, 0.0, -0.0, 2.0, -3.0, 1.0)
    alphas = [tuple(bits) for bits in product((0, 1), repeat=4)]
    assert mus_evaluate_many(model, x, alphas) == [mus_evaluate(model, x, a) for a in alphas]


def test_mus_evaluate_many_beyond_packed_keys():
    """n = 70 groups is past the 62-bit packed key."""
    n = 70
    cfg = SmoothingConfig(q=8, lambda_num=5, seed=3, n=n)
    model = SmoothedModel.build(random_linear(n, 3, 4), FeatureGrouping.trivial(n), cfg)
    stream = LcgStream(derive_rng_state(70, 0))
    x = tuple(_inputs(stream, 1, n)[0].tolist())
    alphas = [_mask(stream, n) for _ in range(6)] + [(1,) * n, (1,) * n]
    assert mus_evaluate_many(model, x, alphas) == [mus_evaluate(model, x, a) for a in alphas]


def test_row_loop_handle_sees_each_distinct_effective_mask_once():
    n = 5
    cfg = SmoothingConfig(q=8, lambda_num=3, seed=2, n=n)
    stream = LcgStream(derive_rng_state(5, 5))
    alphas = [_mask(stream, n) for _ in range(12)] + [(1,) * n] * 3
    x = (0.7, -1.0, 0.25, 2.0, -0.5)
    for mu in (None, (1, 0, 0, 1, 0)):
        handle = RowLoopHandle(random_linear(n, 3, 8))
        model = SmoothedModel.build(handle, FeatureGrouping.trivial(n), cfg, mu=mu)
        want = [mus_evaluate(model, x, a) for a in alphas]
        handle.calls = 0
        assert mus_evaluate_many(model, x, alphas) == want
        keep = mu or (0,) * n
        distinct = {mask_or(keep, mask_and(a, atom))
                    for a in alphas for atom in model.atoms.tolist()}
        assert handle.calls == len(distinct) < len(alphas) * cfg.q


def test_with_mu_shares_atoms_and_matches_build():
    cfg = SmoothingConfig(q=4, lambda_num=2, seed=1, n=3)
    grouping = FeatureGrouping.trivial(3)
    model = SmoothedModel.build(random_linear(3, 2, 1), grouping, cfg)
    shielded = model.with_mu((1, 0, 1))
    assert shielded == SmoothedModel.build(model.base, grouping, cfg, mu=(1, 0, 1))
    assert shielded.atoms is model.atoms
    assert model.atoms.dtype == np.uint8
    assert model.atoms.tolist() == enumerate_atoms(cfg).tolist()
    with pytest.raises(ValueError, match="read-only"):
        model.atoms[0, 0] ^= 1
    assert model.mu is None
    assert shielded.with_mu(None) == model
    direct = SmoothedModel(base=model.base, grouping=grouping, cfg=cfg, mu=(1, 0, 1))
    assert direct.atoms.tolist() == model.atoms.tolist() and direct == shielded


def test_batch_contract_violations_raise_like_validate_logits():
    x = (1.0, 1.0)
    cfg = SmoothingConfig(q=4, lambda_num=2, seed=0, n=2)
    grouping = FeatureGrouping.trivial(2)
    bad_rows = {
        "sum": lambda z: np.tile([0.9, 0.9], (len(z), 1)),
        "range": lambda z: np.tile([1.5, -0.5], (len(z), 1)),
        "width": lambda z: np.tile([0.2, 0.3, 0.5], (len(z), 1)),
    }
    for name, batch in bad_rows.items():
        model = SmoothedModel.build(BatchOnly(2, 2, batch), grouping, cfg)
        with pytest.raises(ConfigError) as got:
            mus_evaluate_many(model, x, [(1, 1)])
        with pytest.raises(ConfigError) as want:
            validate_logits(batch(np.zeros((1, 2)))[0].tolist(), 2)
        if name == "width":
            assert re.fullmatch(r"expected a \(\d+, 2\) probability batch, "
                                r"got shape \(\d+, 3\)", str(got.value))
            assert str(want.value) == "expected 2 class probabilities, got 3"
        else:
            assert str(got.value) == str(want.value)


def test_contract_sums_each_row_left_to_right_with_or_without_a_batch_method():
    """This row adds up to 1.000000001 from left to right, just past the
    tolerance; a compensated sum (sum() from Python 3.12 on) would give
    1.0000000009999999 and pass it."""
    row = (0.13316528022862978, 0.6950509349425191, 0.17178378582885104)
    for handle in (ConstantHandle(row, 2),
                   BatchOnly(2, 3, lambda z: np.tile(row, (len(z), 1)))):
        with pytest.raises(ConfigError, match="^probabilities sum to 1.000000001, not 1$"):
            evaluate_rows(handle, np.zeros((4, 2)))


def test_evaluate_rows_names_a_ragged_row():
    """Without a batch method, the first row of the wrong width is named,
    whether the rows stack (all too wide) or not (ragged)."""

    class ThirdClassFromCall:
        d = 2
        m = 2

        def __init__(self, first_wide):
            self.first_wide, self.calls = first_wide, 0

        def evaluate(self, z):
            self.calls += 1
            return (0.5, 0.5) if self.calls < self.first_wide else (0.25, 0.25, 0.5)

    for first_wide in (2, 1):
        with pytest.raises(ConfigError, match=rf"^evaluate row {first_wide - 1}: expected 2 "
                                              r"class probabilities, got shape \(3,\)$"):
            evaluate_rows(ThirdClassFromCall(first_wide), np.zeros((3, 2)))


def test_oracle_finds_a_flip_in_a_later_chunk():
    """Only the all-zero mask flips the class; at n = 11 it is the last of
    2048 enumerated masks, past the first chunk."""

    class FiresOnEmptyInput:
        d = 11
        m = 2

        def evaluate(self, z):
            return (0.0, 1.0) if all(v == 0.0 for v in z) else (1.0, 0.0)

    n = 11
    cfg = SmoothingConfig(q=4, lambda_num=3, seed=0, n=n)
    model = SmoothedModel.build(FiresOnEmptyInput(), FeatureGrouping.trivial(n), cfg)
    x, phi = (1.0,) * n, (0,) * n
    assert brute_force_stability_oracle(model, x, phi, n - 1, "dec")
    assert not brute_force_stability_oracle(model, x, phi, n, "dec")


def test_trained_models_keep_their_bytes(desk, small_artifacts):
    for path, want in ((desk["model_path"], DESK_MODEL_SHA256),
                       (small_artifacts["model_path"], SMALL_MODEL_SHA256)):
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want
