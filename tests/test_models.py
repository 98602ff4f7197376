"""Built-in classifiers: forward exactness, gradients, trainer, weights IO."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from muscert.core import ConfigError, DataError
from muscert.data import LabeledDataset, synth_blobs
from muscert.models import (
    LinearSoftmaxModel,
    MlpModel,
    fit_logistic,
    load_model,
    random_linear,
    random_mlp,
    save_model,
)
from muscert.noise import LcgStream, derive_rng_state
from muscert.selfcheck import check_gradient_fd

from reference import scalar_gradient


def test_zero_weights_give_uniform_softmax():
    model = LinearSoftmaxModel(weights=((0.0, 0.0),) * 3, bias=(0.0,) * 3)
    p = model.evaluate((5.0, -2.0))
    assert p == (pytest.approx(1 / 3), pytest.approx(1 / 3), pytest.approx(1 / 3))


def test_identity_weights_worked_example():
    model = LinearSoftmaxModel(weights=((1.0, 0.0), (0.0, 1.0)), bias=(0.0, 0.0))
    p = model.evaluate((2.0, 0.0))
    e2 = math.exp(2.0)
    assert abs(p[0] - e2 / (e2 + 1)) <= 1e-15
    assert abs(p[1] - 1 / (e2 + 1)) <= 1e-15


def test_softmax_sums_to_one():
    for trial in range(20):
        model = random_linear(5, 4, derive_rng_state(trial, 0))
        stream = LcgStream(derive_rng_state(trial, 1))
        x = tuple(8.0 * stream.next_unit() - 4.0 for _ in range(5))
        p = model.evaluate(x)
        assert abs(math.fsum(p) - 1.0) <= 1e-12
        assert all(v >= 0.0 for v in p)


def test_softmax_is_stable_for_large_logits():
    model = LinearSoftmaxModel(weights=((100.0,), (-100.0,)), bias=(0.0, 0.0))
    p = model.evaluate((10.0,))
    assert 0.0 <= p[1] < 1e-200
    assert p[0] == pytest.approx(1.0)


def _fd_gradient(model, x, c, h=1e-6):
    out = []
    for j in range(len(x)):
        up = list(x)
        dn = list(x)
        up[j] += h
        dn[j] -= h
        out.append((model.evaluate(up)[c] - model.evaluate(dn)[c]) / (2 * h))
    return out


@pytest.mark.parametrize("builder", [
    lambda t: random_linear(4, 3, derive_rng_state(t, 0)),
    lambda t: random_mlp(4, 5, 3, derive_rng_state(t, 0)),
])
def test_analytic_gradient_matches_finite_differences(builder):
    for trial in range(10):
        model = builder(trial)
        stream = LcgStream(derive_rng_state(trial, 9))
        x = tuple(2.0 * stream.next_unit() - 1.0 for _ in range(4))
        for c in range(model.m):
            analytic = model.gradient(x, c)
            numeric = _fd_gradient(model, x, c)
            for a, b in zip(analytic, numeric):
                assert abs(a - b) <= 1e-6


def test_relu_kink_uses_zero_subgradient():
    """A hidden unit with zero pre-activation contributes nothing."""
    model = MlpModel(
        w1=((1.0, -1.0),),
        b1=(0.0,),
        w2=((2.0,), (-2.0,)),
        b2=(0.0, 0.0),
    )
    x = (1.0, 1.0)  # pre-activation exactly 0
    grad = model.gradient(x, 0)
    assert grad == (0.0, 0.0)


def test_gradient_fd_suite_redraws_inputs_at_the_relu_kink():
    """Trial seed 1915 draws an MLP pre-activation of -3.6e-5, inside the
    1e-4 finite-difference step; the suite must redraw, not fail."""
    result = check_gradient_fd(1, 1915, 8)
    assert (result.trials, result.failures) == (1, 0)


def test_gradient_class_bounds():
    model = random_linear(3, 2, 1)
    with pytest.raises(ConfigError, match=r"class 2 outside 0\.\.1"):
        model.gradient((1.0, 2.0, 3.0), 2)


def _dyadic_mlp(stream, d, h, m):
    """An MLP whose weights are small multiples of 1/4, so that inputs on a
    grid of halves put many hidden pre-activations at exactly 0.0."""
    def grid(rows, cols):
        return tuple(tuple((stream.next_below(9) - 4) / 4 for _ in range(cols))
                     for _ in range(rows))
    return MlpModel(w1=grid(h, d), b1=grid(1, h)[0], w2=grid(m, h), b2=grid(1, m)[0])


def _gradient_cases():
    """(model, inputs) pairs: random linear and MLP models with d from 2 to
    16 on inputs mixing +0.0, -0.0 and random values, with large-weight
    linear models whose probabilities underflow to 0.0 (which gives -0.0
    gradient entries), and dyadic MLPs on a grid of halves where hidden
    pre-activations are exactly 0.0."""
    for trial in range(24):
        stream = LcgStream(derive_rng_state(trial, 30))
        d, m = 2 + trial % 15, 2 + trial % 3
        h = 1 + stream.next_below(8)
        models = (random_linear(d, m, derive_rng_state(trial, 31), scale=2.0),
                  random_linear(d, m, derive_rng_state(trial, 33), scale=400.0),
                  random_mlp(d, h, m, derive_rng_state(trial, 32), scale=2.0),
                  _dyadic_mlp(stream, d, h, m))
        signed_zeros = [[(0.0, -0.0)[stream.next_below(2)] if stream.next_below(3) == 0
                         else 4.0 * stream.next_unit() - 2.0 for _ in range(d)]
                        for _ in range(6)]
        halves = [[(stream.next_below(9) - 4) / 2 for _ in range(d)] for _ in range(6)]
        for model in models:
            yield model, np.array(signed_zeros + halves + [[-0.0] * d, [0.0] * d])


def test_gradient_batch_equals_the_scalar_loops_bit_for_bit():
    kinks = negative_zeros = 0
    for model, inputs in _gradient_cases():
        if isinstance(model, MlpModel):
            # Exact: the dyadic sums need few bits, and elsewhere 0.0 is rare.
            pre = inputs @ np.array(model.w1).T + np.array(model.b1)
            kinks += int((pre == 0.0).sum())
        for c in range(model.m):
            batch = model.gradient_batch(inputs, np.full(len(inputs), c))
            assert batch.shape == inputs.shape
            negative_zeros += int(((batch == 0.0) & np.signbit(batch)).sum())
            for z, row in zip(inputs.tolist(), batch):
                want = np.array(scalar_gradient(model, tuple(z), c))
                # Bytes, not ==, so that -0.0 and +0.0 differ.
                assert row.tobytes() == want.tobytes()
                assert np.array(model.gradient(tuple(z), c)).tobytes() == want.tobytes()
    # The cases reach what they are there for.
    assert kinks >= 20 and negative_zeros >= 20


def test_gradient_batch_takes_one_class_per_row():
    model = random_mlp(3, 4, 3, 5)
    inputs = np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.5], [-2.0, 1.0, 0.25]])
    batch = model.gradient_batch(inputs, [2, 0, 1])
    for z, c, row in zip(inputs.tolist(), (2, 0, 1), batch.tolist()):
        assert tuple(row) == scalar_gradient(model, tuple(z), c)


@pytest.mark.parametrize("model", [random_linear(3, 2, 1), random_mlp(3, 4, 2, 1)])
def test_gradient_batch_checks_its_classes(model):
    inputs = np.zeros((2, 3))
    for classes in ([0, 2], [-1, 0]):
        with pytest.raises(ConfigError, match=rf"^class {max(classes, key=abs)} outside 0\.\.1$"):
            model.gradient_batch(inputs, classes)
    with pytest.raises(ConfigError, match=r"^got classes of shape \(3,\) for 2 input rows$"):
        model.gradient_batch(inputs, [0, 1, 0])
    with pytest.raises(ConfigError, match=r"^class 2 outside 0\.\.1$"):
        model.gradient((1.0, 2.0, 3.0), 2)


def test_fit_reaches_separable_accuracy():
    dataset = synth_blobs(30, 2, 2, 6.0, derive_rng_state(3, 0))
    model = fit_logistic(dataset, epochs=500, learning_rate=0.1, rng_state=0)
    hits = 0
    for x, y in dataset.examples:
        p = model.evaluate(x)
        hits += max(range(2), key=lambda c: p[c]) == y
    assert hits / len(dataset) >= 0.95


def test_fit_zero_epochs_is_deterministic_init():
    dataset = synth_blobs(5, 3, 2, 4.0, derive_rng_state(1, 0))
    a = fit_logistic(dataset, epochs=0, rng_state=42)
    b = fit_logistic(dataset, epochs=0, rng_state=42)
    assert a == b
    assert a.bias == (0.0, 0.0)
    reference = random_linear(3, 2, 42, scale=0.01)
    assert a.weights == reference.weights


def test_fit_loss_history_never_increases():
    dataset = synth_blobs(20, 3, 3, 3.0, derive_rng_state(2, 0))
    history = []
    fit_logistic(dataset, epochs=120, learning_rate=0.5, rng_state=0,
                 loss_history=history)
    assert len(history) >= 2
    for earlier, later in zip(history, history[1:]):
        assert later <= earlier + 1e-15


def test_fit_rejects_empty_dataset():
    class Hollow:
        examples = ()
        d = 1
        m = 2

    with pytest.raises(DataError, match="cannot fit on an empty dataset"):
        fit_logistic(Hollow())


def test_linear_round_trip_is_bit_exact(tmp_path):
    model = random_linear(4, 3, 99)
    path = tmp_path / "linear.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert isinstance(loaded, LinearSoftmaxModel)
    assert loaded == model
    x = (0.1, -2.5, 3.75, 1e-9)
    assert loaded.evaluate(x) == model.evaluate(x)


def test_mlp_round_trip_is_bit_exact(tmp_path):
    model = random_mlp(3, 4, 2, 17)
    path = tmp_path / "mlp.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert isinstance(loaded, MlpModel)
    assert loaded == model
    x = (0.25, -1.0, 2.0)
    assert loaded.evaluate(x) == model.evaluate(x)


def test_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"kind": "tree", "d": 2, "m": 2,
                                "weights": [], "bias": []}))
    with pytest.raises(DataError, match="unknown kind 'tree'") as err:
        load_model(str(path))
    assert "linear" in str(err.value) and "mlp" in str(err.value)


def test_load_names_bad_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "linear", "d": 2, "m": 2,
                                "weights": [[1.0, 2.0]], "bias": [0.0, 0.0]}))
    with pytest.raises(DataError, match='field "weights" must be a 2x2 matrix') as err:
        load_model(str(path))
    assert "weights" in str(err.value)


@pytest.mark.parametrize("doc,message", [
    ({"kind": "linear", "d": 2, "m": 2, "bias": [0.0, 0.0]},
     'field "weights" must be a 2x2 matrix'),
    ({"kind": "linear", "d": 2, "m": 2, "weights": [[1.0, 2.0], [0.0, 1.0]]},
     'field "bias" must be a length-2 list'),
    ({"kind": "mlp", "d": 1, "m": 2, "h": 1, "bias": [[0.0], [0.0, 0.0]]},
     'field "weights" must hold two layers'),
    ({"kind": "mlp", "d": 1, "m": 2, "h": 1, "weights": [[[1.0]], [[1.0], [0.0]]],
      "bias": [[0.0]]}, 'field "bias" must hold two layers'),
], ids=["linear-weights", "linear-bias", "mlp-weights", "mlp-bias"])
def test_load_names_a_missing_field(tmp_path, doc, message):
    """A missing field is a DataError naming it, not a bare KeyError."""
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=message):
        load_model(str(path))


@pytest.mark.parametrize("doc,message", [
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [[1.0, NaN], [0.0, 1.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 holds non-finite weight nan'),
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [[1.0, 2.0], [0.0, 1.0]],'
     ' "bias": [0.0, -Infinity]}', 'field "bias" holds non-finite weight -inf'),
    ('{"kind": "linear", "d": 1, "m": 2, "weights": [[1e999], [0.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 holds non-finite weight inf'),
    ('{"kind": "mlp", "d": 1, "m": 2, "h": 1, "weights": [[[1.0]], [[1.0], [Infinity]]],'
     ' "bias": [[0.0], [0.0, 0.0]]}', 'field "weights" row 1 holds non-finite weight inf'),
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [[1.0, "x"], [0.0, 1.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 holds a non-numeric weight'),
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [[1.0, 2.0], [0.0, 1.0]],'
     ' "bias": [0.0, [1]]}', 'field "bias" holds a non-numeric weight'),
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [[true, false], [0.0, 1.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 holds a non-numeric weight: True'),
    ('{"kind": "mlp", "d": 1, "m": 2, "h": 1, "weights": [[[1.0]], [[1.0], [0.0]]],'
     ' "bias": [[0.0], [false, 0.0]]}', 'field "bias" holds a non-numeric weight: False'),
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [["1.5", "2"], [0.0, 1.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 holds a non-numeric weight: \'1.5\''),
    ('{"kind": "linear", "d": 1, "m": 2, "weights": [[1' + '0' * 400 + '], [0.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 holds a weight too large for a float'),
], ids=["linear-nan", "linear-bias", "overflow", "mlp", "string", "list", "bool-weight",
        "bool-bias", "numeric-string", "huge-int"])
def test_load_rejects_non_finite_or_non_numeric_weights(tmp_path, doc, message):
    path = tmp_path / "nan.json"
    path.write_text(doc)
    with pytest.raises(DataError, match=message):
        load_model(str(path))


@pytest.mark.parametrize("doc,key", [
    ({"kind": "linear", "d": 2, "m": True, "weights": [[1.0, 2.0]], "bias": [0.0]}, "m"),
    ({"kind": "linear", "d": True, "m": 2, "weights": [[1.0], [2.0]], "bias": [0.0, 0.0]},
     "d"),
    ({"kind": "mlp", "d": 1, "m": 2, "h": True, "weights": [[[1.0]], [[1.0], [0.0]]],
      "bias": [[0.0], [0.0, 0.0]]}, "h"),
], ids=["m", "d", "h"])
def test_load_rejects_boolean_sizes(tmp_path, doc, key):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f'field "{key}" must be a positive int'):
        load_model(str(path))


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="is not valid JSON"):
        load_model(str(path))


def test_load_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read model file"):
        load_model(str(tmp_path / "absent.json"))


def test_constructor_shape_validation():
    with pytest.raises(ConfigError, match="need at least 2 classes"):
        LinearSoftmaxModel(weights=((1.0,),), bias=(0.0,))
    with pytest.raises(ConfigError, match=r"ragged weight rows with widths \[1, 2\]"):
        LinearSoftmaxModel(weights=((1.0,), (1.0, 2.0)), bias=(0.0, 0.0))
    with pytest.raises(ConfigError, match="output layer shape mismatch"):
        MlpModel(w1=((1.0,),), b1=(0.0,), w2=((1.0, 2.0),), b2=(0.0,))
