"""Built-in desk-scale classifiers: linear softmax and a two-layer ReLU MLP.

Each model has one forward kernel (evaluate_batch) and one gradient kernel
(gradient_batch) over a (k, d) input array; evaluate and gradient are their
one-row calls. Every sum runs in a pinned order, column by column, so a row
gets the same bits in any batch and on every run, and math.exp rounds the
same everywhere. Weights round-trip through a JSON document using Python's
shortest round-trip float formatting.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    DataError,
    Logits,
    Vector,
)
from .noise import LcgStream

MODEL_KINDS = ("linear", "mlp")


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row of a (k, m) array, after subtracting the row
    maximum. The maximum and the sum run column by column, so each row sums
    left to right: a reduction along each row of m values is slow.
    """
    top = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    shifted = logits - top[:, None]
    # np.exp is not correctly rounded and differs from math.exp in the last bit.
    exps = np.fromiter(map(math.exp, shifted.ravel().tolist()), dtype=float,
                       count=shifted.size).reshape(shifted.shape)
    total = np.zeros(len(exps))
    for j in range(exps.shape[1]):
        total += exps[:, j]
    return exps / total[:, None]


def _affine_cols(z: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """W z + b for each row z of a (k, d) array, as a C-contiguous (k, m)
    array: each entry sums the d products left to right from 0.0, then adds
    the bias. Adding one input column at a time keeps that order, where a
    matrix product would not. The sums run on the transposed (m, k) array,
    so every step reads one contiguous row of z.T and updates contiguous rows.
    """
    cols = np.ascontiguousarray(z.T)
    acc = np.zeros((len(weights), len(z)))
    for k, col in enumerate(cols):
        acc += weights[:, k:k + 1] * col
    acc += bias[:, None]
    return np.ascontiguousarray(acc.T)


def _batch_input(z, d: int) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ConfigError(f"input batch shape {arr.shape} is not (k, d={d})")
    return arr


def _batch_classes(classes, k: int, m: int) -> np.ndarray:
    """One class per input row, each in 0..m-1, as an intp array."""
    arr = np.asarray(classes, dtype=np.intp)
    if arr.shape != (k,):
        raise ConfigError(f"got classes of shape {arr.shape} for {k} input rows")
    outside = (arr < 0) | (arr >= m)
    if outside.any():
        raise ConfigError(f"class {int(arr[outside][0])} outside 0..{m - 1}")
    return arr


def _one_row(x: Sequence[float], d: int) -> list:
    """[x], the batch of one input, for evaluate and gradient."""
    if len(x) != d:
        raise ConfigError(f"input length {len(x)} != d={d}")
    return [x]


@dataclass(frozen=True)
class LinearSoftmaxModel:
    """softmax(W x + b) with an m-by-d weight matrix."""

    weights: tuple[tuple[float, ...], ...]
    bias: tuple[float, ...]
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.bias):
            raise ConfigError(
                f"weights rows {len(self.weights)} != bias length {len(self.bias)}"
            )
        if len(self.weights) < 2:
            raise ConfigError("need at least 2 classes")
        widths = {len(row) for row in self.weights}
        if len(widths) != 1:
            raise ConfigError(f"ragged weight rows with widths {sorted(widths)}")
        object.__setattr__(self, "_w", np.array(self.weights, dtype=float))
        object.__setattr__(self, "_b", np.array(self.bias, dtype=float))

    @property
    def d(self) -> int:
        return len(self.weights[0])

    @property
    def m(self) -> int:
        return len(self.weights)

    def evaluate(self, x: Sequence[float]) -> Logits:
        return tuple(self.evaluate_batch(_one_row(x, self.d))[0].tolist())

    def gradient(self, x: Sequence[float], c: int) -> Vector:
        return tuple(self.gradient_batch(_one_row(x, self.d), [c])[0].tolist())

    def evaluate_batch(self, z) -> np.ndarray:
        """(k, m) array of the class probabilities of each row of z."""
        return _softmax_rows(_affine_cols(_batch_input(z, self.d), self._w, self._b))

    def gradient_batch(self, z, classes) -> np.ndarray:
        """(k, d) array whose row r is d p_c / d z[r] = p_c * (W_c - sum_j
        p_j W_j) at c = classes[r], the sum over j in class order from 0.0."""
        z = _batch_input(z, self.d)
        classes = _batch_classes(classes, len(z), self.m)
        p = self.evaluate_batch(z)
        mix = np.zeros(z.shape)
        for j in range(self.m):
            mix += p[:, j:j + 1] * self._w[j]
        return p[np.arange(len(z)), classes][:, None] * (self._w[classes] - mix)


@dataclass(frozen=True)
class MlpModel:
    """softmax(W2 relu(W1 x + b1) + b2); ReLU subgradient at 0 is taken as 0."""

    w1: tuple[tuple[float, ...], ...]
    b1: tuple[float, ...]
    w2: tuple[tuple[float, ...], ...]
    b2: tuple[float, ...]
    _layers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.w1) != len(self.b1) or len(self.w1) < 1:
            raise ConfigError("hidden layer shape mismatch")
        if len(self.w2) != len(self.b2) or len(self.w2) < 2:
            raise ConfigError("output layer shape mismatch")
        if any(len(row) != len(self.w1[0]) for row in self.w1):
            raise ConfigError("ragged first-layer rows")
        if any(len(row) != len(self.w1) for row in self.w2):
            raise ConfigError(
                f"second-layer width {len(self.w2[0])} != hidden width {len(self.w1)}"
            )
        object.__setattr__(self, "_layers", tuple(
            np.array(v, dtype=float) for v in (self.w1, self.b1, self.w2, self.b2)))

    @property
    def d(self) -> int:
        return len(self.w1[0])

    @property
    def h(self) -> int:
        return len(self.w1)

    @property
    def m(self) -> int:
        return len(self.w2)

    def evaluate(self, x: Sequence[float]) -> Logits:
        return tuple(self.evaluate_batch(_one_row(x, self.d))[0].tolist())

    def gradient(self, x: Sequence[float], c: int) -> Vector:
        return tuple(self.gradient_batch(_one_row(x, self.d), [c])[0].tolist())

    def _forward(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (k, h) hidden pre-activations and (k, m) class probabilities
        of the rows of z."""
        w1, b1, w2, b2 = self._layers
        pre = _affine_cols(z, w1, b1)
        return pre, _softmax_rows(_affine_cols(np.where(pre > 0.0, pre, 0.0), w2, b2))

    def evaluate_batch(self, z) -> np.ndarray:
        """(k, m) array of the class probabilities of each row of z."""
        return self._forward(_batch_input(z, self.d))[1]

    def gradient_batch(self, z, classes) -> np.ndarray:
        """(k, d) array whose row r is d p_c / d z[r] at c = classes[r]: back
        through W2, summed over the classes in order from 0.0, then through
        W1, summed over the units with a positive pre-activation in order."""
        z = _batch_input(z, self.d)
        classes = _batch_classes(classes, len(z), self.m)
        w1, _, w2, _ = self._layers
        pre, p = self._forward(z)
        rows = np.arange(len(z))
        onehot = np.zeros_like(p)
        onehot[rows, classes] = 1.0
        # d p_c / d o_j at the output logits o.
        dz = p[rows, classes][:, None] * (onehot - p)
        dact = np.zeros(pre.shape)
        for j in range(self.m):
            dact += dz[:, j:j + 1] * w2[j]
        out = np.zeros(z.shape)
        live = pre > 0.0
        for t in range(self.h):
            # Unit t passes the gradient only where its pre-activation is positive.
            np.add(out, dact[:, t:t + 1] * w1[t], out=out, where=live[:, t:t + 1])
        return out


def random_linear(d: int, m: int, rng_state: int, scale: float = 1.0) -> LinearSoftmaxModel:
    """Gaussian-initialized linear model; deterministic given rng_state."""
    stream = LcgStream(rng_state)
    vals = [v * scale for v in stream.next_gauss_values(m * d + m)]
    weights = tuple(tuple(vals[r * d: (r + 1) * d]) for r in range(m))
    bias = tuple(vals[m * d:])
    return LinearSoftmaxModel(weights=weights, bias=bias)


def random_mlp(d: int, h: int, m: int, rng_state: int, scale: float = 1.0) -> MlpModel:
    stream = LcgStream(rng_state)
    vals = [v * scale for v in stream.next_gauss_values(h * d + h + m * h + m)]
    pos = 0
    w1 = tuple(tuple(vals[pos + r * d: pos + (r + 1) * d]) for r in range(h))
    pos += h * d
    b1 = tuple(vals[pos: pos + h])
    pos += h
    w2 = tuple(tuple(vals[pos + r * h: pos + (r + 1) * h]) for r in range(m))
    pos += m * h
    b2 = tuple(vals[pos: pos + m])
    return MlpModel(w1=w1, b1=b1, w2=w2, b2=b2)


def _mean_crossentropy(probs: np.ndarray, ys: np.ndarray) -> float:
    """Mean of -log p_y over the rows, summed left to right."""
    total = 0.0
    for p in probs[np.arange(len(ys)), ys].tolist():
        total += -math.log(max(p, 1e-300))
    return total / len(ys)


def fit_logistic(dataset, epochs: int = 500, learning_rate: float = 0.1,
                 rng_state: int = 0,
                 loss_history: list[float] | None = None) -> LinearSoftmaxModel:
    """Full-batch gradient descent on cross-entropy.

    Deterministic given rng_state (LCG Gaussian init, scale 0.01). A step that
    would increase the loss is rejected and the learning rate halved, up to 20
    halvings over the whole run, so the recorded loss never increases. The
    gradient sums the examples in dataset order, starting from +0.0, as a
    loop over examples would, so the weights do not depend on numpy's
    summation order.
    """
    if len(dataset.examples) == 0:
        raise DataError("cannot fit on an empty dataset")
    d, m = dataset.d, dataset.m
    # Each example followed by 1.0, the input the bias multiplies.
    rows = np.ones((len(dataset.examples), d + 1))
    rows[:, :d] = [x for x, _ in dataset.examples]
    xs = rows[:, :d]
    ys = np.array([y for _, y in dataset.examples], dtype=np.intp)
    init = random_linear(d, m, rng_state, scale=0.01)
    weights = np.array(init.weights, dtype=float)
    bias = np.zeros(m)
    onehot = np.zeros((len(ys), m))
    onehot[np.arange(len(ys)), ys] = 1.0
    inv = 1.0 / len(ys)

    # One class's per-example gradient terms after a row of +0.0, so that
    # each running sum over the examples starts from +0.0 as a loop's would.
    terms = np.zeros((len(ys) + 1, d + 1))
    sums = np.empty_like(terms)
    grad = np.empty((m, d + 1))
    lr = learning_rate
    halvings = 0
    probs = _softmax_rows(_affine_cols(xs, weights, bias))
    loss = _mean_crossentropy(probs, ys)
    if loss_history is not None:
        loss_history.append(loss)
    for _ in range(epochs):
        err = (probs - onehot) * inv
        for j in range(m):
            np.multiply(err[:, j:j + 1], rows, out=terms[1:])
            grad[j] = np.add.accumulate(terms, axis=0, out=sums)[-1]
        grad_w, grad_b = grad[:, :d], grad[:, d]
        stepped = None
        while halvings <= 20:
            cand_w = weights - lr * grad_w
            cand_b = bias - lr * grad_b
            cand_probs = _softmax_rows(_affine_cols(xs, cand_w, cand_b))
            cand_loss = _mean_crossentropy(cand_probs, ys)
            if cand_loss <= loss:
                stepped = (cand_w, cand_b, cand_probs, cand_loss)
                break
            if halvings == 20:
                break
            halvings += 1
            lr *= 0.5
        if stepped is None:
            break  # no step size left that still decreases the loss
        weights, bias, probs, loss = stepped
        if loss_history is not None:
            loss_history.append(loss)
    return LinearSoftmaxModel(weights=tuple(map(tuple, weights.tolist())),
                              bias=tuple(bias.tolist()))


def _require_matrix(doc: dict, key: str, rows: int, cols: int) -> tuple[tuple[float, ...], ...]:
    raw = doc.get(key)
    if not isinstance(raw, list) or len(raw) != rows:
        raise DataError(f'field "{key}" must be a {rows}x{cols} matrix')
    out = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise DataError(
                f'field "{key}" row {r} has length '
                f"{len(row) if isinstance(row, list) else 'non-list'}, expected {cols}"
            )
        out.append(_finite_values(row, f'field "{key}" row {r}'))
    return tuple(out)


def _require_vector(doc: dict, key: str, length: int) -> tuple[float, ...]:
    raw = doc.get(key)
    if not isinstance(raw, list) or len(raw) != length:
        raise DataError(f'field "{key}" must be a length-{length} list')
    return _finite_values(raw, f'field "{key}"')


def _finite_values(raw: list, where: str) -> tuple[float, ...]:
    """The entries as floats. Only JSON numbers are weights: strings are
    not read as numbers, nor true and false as 1 and 0. JSON NaN, Infinity,
    overflowing float literals and integers too large for a float parse,
    but a model holding them outputs no probabilities."""
    for v in raw:
        if type(v) not in (int, float):
            raise DataError(f"{where} holds a non-numeric weight: {v!r}")
    try:
        values = tuple(float(v) for v in raw)
    except OverflowError as exc:
        raise DataError(f"{where} holds a weight too large for a float") from exc
    for v in values:
        if not math.isfinite(v):
            raise DataError(f"{where} holds non-finite weight {v!r}")
    return values


def _positive_int(doc: dict, key: str, path: str) -> int:
    """doc[key] when it is an int >= 1; a JSON true is not one."""
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DataError(f'model file {path}: field "{key}" must be a positive int')
    return value


def save_model(model: LinearSoftmaxModel | MlpModel, path: str) -> None:
    if isinstance(model, LinearSoftmaxModel):
        doc = {
            "kind": "linear",
            "d": model.d,
            "m": model.m,
            "weights": [list(row) for row in model.weights],
            "bias": list(model.bias),
        }
    elif isinstance(model, MlpModel):
        doc = {
            "kind": "mlp",
            "d": model.d,
            "m": model.m,
            "h": model.h,
            "weights": [[list(r) for r in model.w1], [list(r) for r in model.w2]],
            "bias": [list(model.b1), list(model.b2)],
        }
    else:
        raise DataError(f"cannot save model of type {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str) -> LinearSoftmaxModel | MlpModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"model file {path} must hold a JSON object")
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise DataError(
            f"model file {path}: unknown kind {kind!r}; supported kinds: "
            + ", ".join(MODEL_KINDS)
        )
    d, m = _positive_int(doc, "d", path), _positive_int(doc, "m", path)
    if kind == "linear":
        return LinearSoftmaxModel(
            weights=_require_matrix(doc, "weights", m, d),
            bias=_require_vector(doc, "bias", m),
        )
    h = _positive_int(doc, "h", path)
    for key in ("weights", "bias"):
        if not isinstance(doc.get(key), list) or len(doc[key]) != 2:
            raise DataError(f'model file {path}: field "{key}" must hold two layers')
    first, second = ({"weights": w, "bias": b} for w, b in zip(doc["weights"], doc["bias"]))
    return MlpModel(w1=_require_matrix(first, "weights", h, d),
                    b1=_require_vector(first, "bias", h),
                    w2=_require_matrix(second, "weights", m, h),
                    b2=_require_vector(second, "bias", m))
