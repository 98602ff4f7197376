"""Built-in classifiers: forward exactness, gradients, trainer, weights IO."""
from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import muscert
from muscert import selfcheck
from muscert.attribution import finite_difference_rows, gradient_score_rows
from muscert.core import ConfigError, DataError
from muscert.data import LabeledDataset, synth_blobs
from muscert.models import (
    LinearSoftmaxModel,
    MlpModel,
    _EXP2_TABLE,
    _exp,
    _mean_crossentropy,
    fit_logistic,
    load_model,
    random_linear,
    random_mlp,
    save_model,
)
from muscert.noise import LcgStream, derive_rng_state, lcg_block
from muscert.selfcheck import GRADIENT_FD_TOL, _near_relu_kink, _random_instance

from reference import scalar_gradient, scalar_logits, scalar_probs


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


def _tied_model(kind, m):
    """A model whose last class copies class 0 when m >= 3, so that those
    two tie at every input where they hold the maximum, and whose logits at
    the zero input are all 0.0."""
    if kind == "linear":
        weights = list(random_linear(3, m, derive_rng_state(m, 0), scale=3.0).weights)
        weights[-1] = weights[0] if m >= 3 else weights[-1]
        return LinearSoftmaxModel(weights=tuple(weights), bias=(0.0,) * m)
    base = random_mlp(3, 4, m, derive_rng_state(m, 0), scale=3.0)
    # Positive output weights, so that class 0 often holds the maximum.
    w2 = list(base.w2)
    w2[0] = tuple(map(abs, w2[0]))
    w2[-1] = w2[0] if m >= 3 else w2[-1]
    return MlpModel(w1=base.w1, b1=tuple(min(b, 0.0) for b in base.b1),
                    w2=tuple(w2), b2=(0.0,) * m)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_softmax_matches_scalar_loops_bit_for_bit(kind, m):
    model = _tied_model(kind, m)
    stream = LcgStream(derive_rng_state(m, 1))
    # Every fourth row is zero; the others are scaled by 1 to 4096, so the
    # logit gaps run from small to far past exp's underflow.
    inputs = np.zeros((4097, 3))
    for r in range(len(inputs)):
        if r % 4 != 3:
            scale = 2.0 ** (12.0 * stream.next_unit())
            inputs[r] = [scale * (2.0 * stream.next_unit() - 1.0) for _ in range(3)]
    logits = [scalar_logits(model, z) for z in inputs.tolist()]
    at_top = [row.count(max(row)) for row in logits]
    exps = [math.exp(v - max(row)) for row in logits for v in row]
    assert m * len(inputs) > sum(at_top) > len(inputs)
    assert m in at_top and (m == 2 or any(1 < c < m for c in at_top))
    assert 0.0 in exps and any(0.0 < e < sys.float_info.min for e in exps)
    for k in (0, 1, len(inputs)):
        want = np.array([scalar_probs(model, z) for z in inputs[:k].tolist()]).reshape(k, m)
        got = model.evaluate_batch(inputs[:k])
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


# A fixed grid over [-745.2, 0], one IEEE product per point, so it has the
# same bits on every host; its lower end gives subnormal results.
EXP_GRID = np.arange(24577) * (-745.2 / 24576)


def _correctly_rounded_exp(x: float) -> float:
    with localcontext() as ctx:
        ctx.prec = 40
        return float(Decimal(x).exp())


def test_exp_is_within_one_ulp_of_the_correctly_rounded_value():
    got = _exp(EXP_GRID)
    want = np.array([_correctly_rounded_exp(x) for x in EXP_GRID.tolist()])
    assert ((0.0 < want) & (want < sys.float_info.min)).sum() > 1000
    # Non-negative doubles order as their bit patterns, one ulp a step.
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert ulps.max() <= 1


def test_exp_special_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _exp(np.array([0.0, -0.0, -np.inf, -800.0, -745.2, np.nan]))
    assert got[:2].tolist() == [1.0, 1.0]
    assert got[2:5].tobytes() == np.zeros(3).tobytes()  # +0.0, not -0.0
    assert np.isnan(got[5])


def test_exp_table_is_correctly_rounded():
    with localcontext() as ctx:
        ctx.prec = 40
        want = [float(Decimal(2) ** (Decimal(j) / 128)) for j in range(128)]
    assert _EXP2_TABLE.tolist() == want


def test_exp_gives_an_entry_the_same_bits_in_any_batch():
    stream = LcgStream(derive_rng_state(27, 0))
    batch = np.array([-750.0 * stream.next_unit() for _ in range(12288)])
    batch[::97] *= 1e-3
    whole = _exp(batch)
    alone = np.concatenate([_exp(batch[r:r + 1]) for r in range(len(batch))])
    assert whole.tobytes() == alone.tobytes()
    assert _exp(batch.reshape(96, 128)).tobytes() == whole.tobytes()


def test_exp_grid_keeps_its_bytes():
    # Host-independence pin: IEEE basic operations give these bits anywhere.
    assert hashlib.sha256(_exp(EXP_GRID).tobytes()).hexdigest() == (
        "a8917ec226eb254cbe7ba9cf8f4bcc0b06b008bbe2ea42d1f3f5a9eae2135c6b")


def test_no_other_exp_in_the_package():
    package = Path(muscert.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert not re.search(r"\b(math|np|numpy)\.exp2?\b", path.read_text()), path.name


def test_importing_the_package_leaves_decimal_out():
    # The table is built from integers: decimal would add to every start-up.
    src = str(Path(muscert.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, muscert; print('decimal' in sys.modules)"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


def test_gradient_fd_suite_redraws_inputs_at_the_relu_kink(monkeypatch):
    """Trial seed 4556 puts the instance's input at an MLP pre-activation of
    5.1e-5, inside the 1e-4 finite-difference step, where central
    differences miss the gradient by 2.5e-3; the suite must redraw, not fail."""
    model, x, table, state = _random_instance(4556, 8)
    built = []
    monkeypatch.setattr(selfcheck, "random_mlp",
                        lambda *args: built.append(random_mlp(*args)) or built[-1])
    assert selfcheck.check_gradient_fd(model, x, table, state)
    [mlp] = built
    assert _near_relu_kink(mlp, x)
    numeric = np.abs(finite_difference_rows(mlp, np.array([x])))
    assert np.abs(gradient_score_rows(mlp, [x], model.grouping) - numeric).max() > GRADIENT_FD_TOL


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


def test_fit_stops_once_no_step_size_decreases_the_loss():
    """On overlapping blobs a rate of 1e8 finds no step in 20 halvings, so
    the fit keeps its initial weights and loss; at 1e3 the halvings run out
    before the 50 epochs. Neither overflows."""
    dataset = synth_blobs(20, 3, 2, 0.1, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stuck, history = [], []
        model = fit_logistic(dataset, epochs=50, learning_rate=1e8, loss_history=stuck)
        fit_logistic(dataset, epochs=50, learning_rate=1e3, loss_history=history)
    assert len(stuck) == 1 and history[0] == stuck[0]
    assert model == LinearSoftmaxModel(random_linear(3, 2, 0, scale=0.01).weights, (0.0, 0.0))
    assert 1 < len(history) < 51


def test_fit_loss_history_never_increases():
    dataset = synth_blobs(20, 3, 3, 3.0, derive_rng_state(2, 0))
    history = []
    fit_logistic(dataset, epochs=120, learning_rate=0.5, rng_state=0,
                 loss_history=history)
    assert len(history) >= 2
    for earlier, later in zip(history, history[1:]):
        assert later <= earlier + 1e-15
    # Pinned bytes: a change to the trainer's arithmetic shows here.
    assert hashlib.sha256(np.array(history).tobytes()).hexdigest() == (
        "e03e35a5036c73b3e3a16acacb63d1533ac453c4e4c565b38c7f679b1eb0e7b5")


def test_mean_crossentropy_has_the_bits_of_the_loop():
    """The trainer's loss as one array pass gives the bits of the loop it
    replaced: -log of each picked probability, clipped at 1e-300, added
    left to right from +0.0, as a Python float. Rows include tiny
    probabilities, an exact 1 (whose -log is -0.0) and an exact 0."""
    def loop(probs, ys):
        total = 0.0
        for p in probs[np.arange(len(ys)), ys].tolist():
            total += -math.log(max(p, 1e-300))
        return total / len(ys)

    for trial in range(300):
        k, m = 1 + trial % 97, 2 + trial % 3
        probs = (lcg_block(derive_rng_state(5, trial), k * m) >> 32).reshape(k, m) / 2.0**32
        probs **= 1 + trial % 40
        probs[0] = 0.0
        probs[0, trial % m] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        ys = np.arange(k) * (trial + 1) % m
        got = _mean_crossentropy(probs, ys)
        assert type(got) is float and repr(got) == repr(loop(probs, ys))
    ones = np.eye(2)
    assert repr(_mean_crossentropy(ones, np.array([0, 1]))) == repr(loop(ones, np.array([0, 1])))


def test_fit_rejects_empty_dataset():
    class Hollow:
        examples = ()
        d = 1
        m = 2

    with pytest.raises(ConfigError, match="^dataset has no examples$"):
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


def _weights_of(model):
    return ((model.weights, (model.bias,)) if isinstance(model, LinearSoftmaxModel)
            else (model.w1, (model.b1,), model.w2, (model.b2,)))


ACCEPTED_MODELS = {
    "random_linear": lambda: random_linear(5, 3, 7, scale=3.0),
    "random_mlp": lambda: random_mlp(4, 6, 3, 8),
    "fit_logistic": lambda: fit_logistic(synth_blobs(10, 3, 3, 2.0, 4), epochs=20),
    "int weights": lambda: LinearSoftmaxModel(weights=((1, -2), (0, 3), (2**60, 0)),
                                              bias=(0, -1, 1)),
    "numpy floats": lambda: MlpModel(
        w1=np.array([[0.5, -1.25], [1e-300, 3.0]], dtype=np.float32),
        b1=(np.float64(0.1), np.int64(-2)),
        w2=np.array([[1.0, -1.0], [0.2, 0.3], [-7.5, 1e300]]),
        b2=[np.float16(0.5), np.uint8(1), np.float64(-0.0)]),
}


@pytest.mark.parametrize("build", ACCEPTED_MODELS.values(), ids=ACCEPTED_MODELS)
def test_every_accepted_model_round_trips(tmp_path, build):
    """The constructors store every weight as a Python float in tuples, so
    what save_model writes load_model reads back equal, to the bit."""
    model = build()
    for matrix in _weights_of(model):
        assert type(matrix) is tuple and all(type(row) is tuple for row in matrix)
        assert all(type(v) is float for row in matrix for v in row)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded == model and type(loaded) is type(model)
    inputs = np.array([[0.5 * j - r for j in range(model.d)] for r in range(4)])
    assert loaded.evaluate_batch(inputs).tobytes() == model.evaluate_batch(inputs).tobytes()
    assert np.array(loaded.evaluate(inputs[1])).tobytes() == \
        np.array(model.evaluate(inputs[1])).tobytes()


def _with_weight(kind, field, value):
    """A two-class model of d = 2 (and h = 2) whose first entry of `field` is value."""
    fields = ({"weights": [[1.0, 2.0], [0.5, 0.0]], "bias": [0.0, 1.0]} if kind == "linear"
              else {"w1": [[1.0, 2.0], [0.5, 0.0]], "b1": [0.0, 1.0],
                    "w2": [[1.0, -1.0], [0.5, 0.0]], "b2": [0.0, 1.0]})
    first = fields[field][0]
    if isinstance(first, list):
        first[0] = value
    else:
        fields[field][0] = value
    cls = LinearSoftmaxModel if kind == "linear" else MlpModel
    return cls(**fields)


@pytest.mark.parametrize("kind,field", [("linear", "weights"), ("linear", "bias"),
                                        ("mlp", "w1"), ("mlp", "b1"), ("mlp", "w2"),
                                        ("mlp", "b2")])
def test_constructors_refuse_what_is_not_a_finite_real_weight(kind, field):
    where = f'field "{field}"' + (" row 0" if field in ("weights", "w1", "w2") else "")
    cases = [(v, f"must be a number, got {v!r}")
             for v in ("1.5", "x", True, np.bool_(False), None, [1.0])]
    cases += [(float("nan"), "must be finite, got nan"), (-math.inf, "must be finite, got -inf"),
              (np.float32("inf"), "must be finite, got inf"),
              (10 ** 400, "is too large for a float")]
    for value, message in cases:
        with pytest.raises(ConfigError) as err:
            _with_weight(kind, field, value)
        assert str(err.value) == f"{where} entry 0 {message}"
    _with_weight(kind, field, np.float32(1.5))


def _refused(path, message):
    """load_model's DataError on the file at path, exactly the file's name then message."""
    with pytest.raises(DataError, match="^" + re.escape(f"model file {path}: {message}") + "$"):
        load_model(str(path))


def test_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"kind": "tree", "d": 2, "m": 2,
                                "weights": [], "bias": []}))
    with pytest.raises(DataError, match="unknown kind 'tree'") as err:
        load_model(str(path))
    assert "linear" in str(err.value) and "mlp" in str(err.value)
    # Nor does save_model write a model of another type: it names the type
    # and leaves no file.
    path = tmp_path / "other.json"
    with pytest.raises(DataError, match="^cannot save model of type SimpleNamespace$"):
        save_model(SimpleNamespace(d=2, m=2), str(path))
    assert not path.exists()


def test_load_names_bad_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "linear", "d": 2, "m": 2,
                                "weights": [[1.0, 2.0]], "bias": [0.0, 0.0]}))
    _refused(path, 'field "weights" must hold at least 2 rows, got 1')


@pytest.mark.parametrize("doc,message", [
    ({"kind": "linear", "d": 2, "m": 2, "bias": [0.0, 0.0]},
     'field "weights" must be a list of rows, got None'),
    ({"kind": "linear", "d": 2, "m": 2, "weights": [[1.0, 2.0], [0.0, 1.0]]},
     'field "bias" must be a list of numbers, got None'),
    ({"kind": "mlp", "d": 1, "m": 2, "h": 1, "bias": [[0.0], [0.0, 0.0]]},
     'field "weights" must hold two layers'),
    ({"kind": "mlp", "d": 1, "m": 2, "h": 1, "weights": [[[1.0]], [[1.0], [0.0]]],
      "bias": [[0.0]]}, 'field "bias" must hold two layers'),
], ids=["linear-weights", "linear-bias", "mlp-weights", "mlp-bias"])
def test_load_names_a_missing_field(tmp_path, doc, message):
    """A missing field is a DataError naming it, not a bare KeyError."""
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    _refused(path, message)


@pytest.mark.parametrize("doc,message", [
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [[1.0, NaN], [0.0, 1.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 entry 1 must be finite, got nan'),
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [[1.0, 2.0], [0.0, 1.0]],'
     ' "bias": [0.0, -Infinity]}', 'field "bias" entry 1 must be finite, got -inf'),
    ('{"kind": "linear", "d": 1, "m": 2, "weights": [[1e999], [0.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 entry 0 must be finite, got inf'),
    ('{"kind": "mlp", "d": 1, "m": 2, "h": 1, "weights": [[[1.0]], [[1.0], [Infinity]]],'
     ' "bias": [[0.0], [0.0, 0.0]]}', 'field "w2" row 1 entry 0 must be finite, got inf'),
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [[1.0, "x"], [0.0, 1.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 entry 1 must be a number, got \'x\''),
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [[1.0, 2.0], [0.0, 1.0]],'
     ' "bias": [0.0, [1]]}', 'field "bias" entry 1 must be a number, got [1]'),
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [[true, false], [0.0, 1.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 entry 0 must be a number, got True'),
    ('{"kind": "mlp", "d": 1, "m": 2, "h": 1, "weights": [[[1.0]], [[1.0], [0.0]]],'
     ' "bias": [[0.0], [false, 0.0]]}', 'field "b2" entry 0 must be a number, got False'),
    ('{"kind": "linear", "d": 2, "m": 2, "weights": [["1.5", "2"], [0.0, 1.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 entry 0 must be a number, got \'1.5\''),
    ('{"kind": "linear", "d": 1, "m": 2, "weights": [[1' + '0' * 400 + '], [0.0]],'
     ' "bias": [0.0, 0.0]}', 'field "weights" row 0 entry 0 is too large for a float'),
], ids=["linear-nan", "linear-bias", "overflow", "mlp", "string", "list", "bool-weight",
        "bool-bias", "numeric-string", "huge-int"])
def test_load_rejects_non_finite_or_non_numeric_weights(tmp_path, doc, message):
    path = tmp_path / "nan.json"
    path.write_text(doc)
    _refused(path, message)


@pytest.mark.parametrize("doc,key", [
    ({"kind": "linear", "d": 2, "m": True, "weights": [[1.0, 2.0], [0.0, 1.0]],
      "bias": [0.0, 0.0]}, "m"),
    ({"kind": "linear", "d": True, "m": 2, "weights": [[1.0], [2.0]], "bias": [0.0, 0.0]},
     "d"),
    ({"kind": "mlp", "d": 1, "m": 2, "h": True, "weights": [[[1.0]], [[1.0], [0.0]]],
      "bias": [[0.0], [0.0, 0.0]]}, "h"),
], ids=["m", "d", "h"])
def test_load_rejects_boolean_sizes(tmp_path, doc, key):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    size = {"m": 2, "d": 1, "h": 1}[key]
    _refused(path, f'field "{key}" must be {size}, the size the weights give, got True')


@pytest.mark.parametrize("key,value", [("d", 3), ("d", 2.0), ("d", None), ("m", 3),
                                       ("m", "2"), ("h", 1), ("h", None)])
def test_load_requires_the_sizes_the_weights_give(tmp_path, key, value):
    doc = {"kind": "mlp", "d": 2, "m": 2, "h": 3,
           "weights": [[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]],
           "bias": [[0.0, 0.0, 0.5], [0.0, 0.0]]}
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps(doc))
    assert load_model(str(path)).h == 3
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))
    size = {"d": 2, "m": 2, "h": 3}[key]
    _refused(path, f'field "{key}" must be {size}, the size the weights give, got {value!r}')


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="is not valid JSON"):
        load_model(str(path))


def test_load_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read model file"):
        load_model(str(tmp_path / "absent.json"))


def test_constructor_shape_validation():
    for build, message in (
        (lambda: LinearSoftmaxModel(weights=((1.0,),), bias=(0.0,)),
         'field "weights" must hold at least 2 rows, got 1'),
        (lambda: LinearSoftmaxModel(weights=((1.0,), (1.0, 2.0)), bias=(0.0, 0.0)),
         'field "weights" row 1 holds 2 numbers, expected 1'),
        (lambda: LinearSoftmaxModel(weights=((), ()), bias=(0.0, 0.0)),
         'field "weights" row 0 holds 0 numbers, expected at least 1'),
        (lambda: LinearSoftmaxModel(weights=((1.0,), (2.0,)), bias=(0.0, 0.0, 1.0)),
         'field "bias" holds 3 numbers, expected 2'),
        (lambda: LinearSoftmaxModel(weights=(1.0, 2.0), bias=(0.0, 0.0)),
         'field "weights" row 0 must be a list of numbers, got 1.0'),
        (lambda: MlpModel(w1=((1.0,),), b1=(0.0,), w2=((1.0, 2.0),), b2=(0.0,)),
         'field "w2" must hold at least 2 rows, got 1'),
        (lambda: MlpModel(w1=(), b1=(), w2=((), ()), b2=(0.0, 0.0)),
         'field "w1" must hold at least 1 rows, got 0'),
        (lambda: MlpModel(w1=((1.0,),), b1=(0.0,), w2=((1.0, 2.0), (1.0, 2.0)),
                          b2=(0.0, 0.0)),
         'field "w2" row 0 holds 2 numbers, expected 1'),
        (lambda: MlpModel(w1=((1.0,),), b1=(0.0, 1.0), w2=((1.0,), (2.0,)), b2=(0.0, 0.0)),
         'field "b1" holds 2 numbers, expected 1'),
    ):
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == message
