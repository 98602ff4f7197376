"""Built-in desk-scale classifiers: linear softmax and a two-layer ReLU MLP.

Each model has one forward kernel (evaluate_batch) and one gradient kernel
(gradient_batch) over a (k, d) input array; evaluate and gradient are their
one-row calls. Layers run on contiguous (units, k) rows, one column per
input, and every sum in a pinned order, a row at a time, so an input gets
the same bits in any batch. Softmax exponentiates with _exp, which is built
from IEEE basic operations only, so a model's outputs have the same bits on
every IEEE host. Two things still call the C library: random_linear and
random_mlp draw weights through noise's Box-Muller log, cos and sin, and
fit_logistic's step test sums math.log of probabilities. The constructors
hold the one model rule: every weight is a finite real number, stored as a
Python float, in rectangular layers of at least 1 input, 1 hidden unit and
2 classes. Weights round-trip through a JSON document using Python's
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
    _class_args,
    _float_rows,
    _int_arg,
    _real_arg,
    _real_row,
    _zero_unless,
)
from .data import LabeledDataset, _read_json_object
from .noise import LcgStream

MODEL_KINDS = ("linear", "mlp")


# exp(x) = 2^(k/128) * exp(r) with k = rint(x * 128/ln2) and |r| <= ln2/256
# (Tang, ACM TOMS 15(2), 1989). _LN2_HI_128 is ln2/128 to 32 significant
# bits, so k * _LN2_HI_128 is exact for every |k| < 2^21, and
# _LN2_LO_128 holds the rest of ln2/128.
_INV_LN2_128 = float.fromhex("0x1.71547652b82fep+7")
_LN2_HI_128 = float.fromhex("0x1.62e42ff000000p-8")
_LN2_LO_128 = float.fromhex("-0x1.718432a1b0e26p-42")
# exp(x) rounds to +0.0 below -745.1332; clipping there keeps k small.
_EXP_FLOOR = -746.0


def _exp2_table() -> np.ndarray:
    """2^(j/128) for j = 0..127, each correctly rounded: 2^(1/128) by seven
    integer square roots in 128-bit fixed point, its powers by integer
    products, each short by under 2^-119 and then rounded half up to 53
    bits."""
    root = 2 << 128
    for _ in range(7):
        root = math.isqrt(root << 128)
    table, power = [], 1 << 128
    for _ in range(128):
        table.append((((power >> 75) + 1) >> 1) / (1 << 52))
        power = (power * root) >> 128
    return np.array(table)


_EXP2_TABLE = _exp2_table()


def _exp(x: np.ndarray) -> np.ndarray:
    """exp of every entry of a float array x of entries <= 0, within 1 ulp
    of the correctly rounded value: exactly 1.0 at 0, +0.0 below -745.1332
    and at -inf, NaN at NaN. Every step is one numpy ufunc of IEEE basic
    operations (no fused multiply-add, no libm), and each entry is computed
    on its own, so an entry has the same bits in any batch on any IEEE host.
    """
    r = np.maximum(x, _EXP_FLOOR)
    k = r * _INV_LN2_128
    np.rint(k, out=k)
    # A NaN k takes the floor's, so the cast is defined; r carries the NaN.
    np.fmax(k, _EXP_FLOOR * _INV_LN2_128, out=k)
    r -= k * _LN2_HI_128  # exact (Sterbenz)
    r -= k * _LN2_LO_128
    k = k.astype(np.intc)
    # exp(r) - 1 = r + r^2 (1/2 + r (1/6 + r (1/24 + r/120))) + O(r^6 / 720),
    # a truncation below 2^-60.
    p = r * (1 / 120)
    p += 1 / 24
    p *= r
    p += 1 / 6
    p *= r
    p += 0.5
    p *= r * r
    p += r
    # The table entries go into r's buffer, which is done with; mode "clip"
    # writes there directly (indices are 0..127), where "raise" would buffer.
    scale = _EXP2_TABLE.take(k & 127, out=r, mode="clip")
    p *= scale
    p += scale
    k >>= 7
    return np.ldexp(p, k, out=p)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of each column of an (m, k) array of logits, overwritten, as
    the C-contiguous (k, m) probabilities. The column maximum is subtracted
    first; the sum adds the rows in class order, so each input sums left to
    right; the division writes the transposed result, the one transpose."""
    logits -= np.maximum.reduce(logits, axis=0)
    exps = _exp(logits)
    total = np.zeros(logits.shape[1])
    for row in exps:
        total += row
    probs = np.empty(logits.shape[::-1])
    np.divide(exps, total, out=probs.T)
    return probs


def _affine_cols(cols: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """W z + b for each column z of a C-contiguous (d, k) array cols, as the
    (m, k) array of logits with one column per input: each entry sums the d
    products left to right from 0.0, then adds the bias. Adding one input
    row of cols at a time keeps that order, where a matrix product would
    not, and every step reads and writes contiguous rows.
    """
    acc = np.zeros((len(weights), cols.shape[1]))
    term = np.empty_like(acc)
    for j, col in enumerate(cols):
        acc += np.multiply(weights[:, j:j + 1], col, out=term)
    acc += bias[:, None]
    return acc


def _layer(w_name: str, b_name: str, weights, bias, min_rows: int, width: int | None = None):
    """The model rule on one layer: at least min_rows rows of weights, all
    `width` wide (as wide as the first row when None), and one bias per
    row, as tuples of Python floats named by their fields in ConfigError."""
    try:
        rows = tuple(weights)
    except TypeError:
        raise ConfigError(f'field "{w_name}" must be a list of rows, got {weights!r}') from None
    if len(rows) < min_rows:
        raise ConfigError(f'field "{w_name}" must hold at least {min_rows} rows, got {len(rows)}')
    out = []
    for r, row in enumerate(rows):
        out.append(_real_row(f'field "{w_name}" row {r}', row, width))
        width = len(out[0])
    return tuple(out), _real_row(f'field "{b_name}"', bias, len(out))


@dataclass(frozen=True)
class LinearSoftmaxModel:
    """softmax(W x + b) with an m-by-d weight matrix."""

    weights: tuple[tuple[float, ...], ...]
    bias: tuple[float, ...]
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights, bias = _layer("weights", "bias", self.weights, self.bias, 2)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "_w", np.array(weights, dtype=float))
        object.__setattr__(self, "_b", np.array(bias, dtype=float))

    @property
    def d(self) -> int:
        return len(self.weights[0])

    @property
    def m(self) -> int:
        return len(self.weights)

    def evaluate(self, x: Sequence[float]) -> Logits:
        return tuple(self.evaluate_batch([x])[0].tolist())

    def gradient(self, x: Sequence[float], c: int) -> Vector:
        return tuple(self.gradient_batch([x], [c])[0].tolist())

    def evaluate_batch(self, z) -> np.ndarray:
        """(k, m) array of the class probabilities of each row of z."""
        cols = np.ascontiguousarray(_float_rows(z, self.d).T)
        return _softmax_rows(_affine_cols(cols, self._w, self._b))

    def gradient_batch(self, z, classes) -> np.ndarray:
        """(k, d) array whose row r is d p_c / d z[r] = p_c * (W_c - sum_j
        p_j W_j) at c = classes[r], the sum over j in class order from 0.0."""
        z = _float_rows(z, self.d)
        classes = _class_args(classes, len(z), self.m)
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
        w1, b1 = _layer("w1", "b1", self.w1, self.b1, 1)
        layers = (w1, b1, *_layer("w2", "b2", self.w2, self.b2, 2, len(w1)))
        for name, value in zip(("w1", "b1", "w2", "b2"), layers):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_layers", tuple(np.array(v, dtype=float) for v in layers))

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
        return tuple(self.evaluate_batch([x])[0].tolist())

    def gradient(self, x: Sequence[float], c: int) -> Vector:
        return tuple(self.gradient_batch([x], [c])[0].tolist())

    def _forward(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (h, k) hidden pre-activations, one column per row of z, and
        the (k, m) class probabilities of the rows of z."""
        w1, b1, w2, b2 = self._layers
        pre = _affine_cols(np.ascontiguousarray(z.T), w1, b1)
        return pre, _softmax_rows(_affine_cols(_zero_unless(pre > 0.0, pre), w2, b2))

    def evaluate_batch(self, z) -> np.ndarray:
        """(k, m) array of the class probabilities of each row of z."""
        return self._forward(_float_rows(z, self.d))[1]

    def gradient_batch(self, z, classes) -> np.ndarray:
        """(k, d) array whose row r is d p_c / d z[r] at c = classes[r]: back
        through W2, summed over the classes in order from 0.0, then through
        W1, summed over the units with a positive pre-activation in order."""
        z = _float_rows(z, self.d)
        classes = _class_args(classes, len(z), self.m)
        w1, _, w2, _ = self._layers
        pre, p = self._forward(z)
        rows = np.arange(len(z))
        onehot = np.zeros_like(p)
        onehot[rows, classes] = 1.0
        # d p_c / d o_j at the output logits o.
        dz = p[rows, classes][:, None] * (onehot - p)
        dact = np.zeros((len(z), self.h))
        for j in range(self.m):
            dact += dz[:, j:j + 1] * w2[j]
        out = np.zeros(z.shape)
        live = pre.T > 0.0
        for t in range(self.h):
            # Unit t passes the gradient only where its pre-activation is positive.
            np.add(out, dact[:, t:t + 1] * w1[t], out=out, where=live[:, t:t + 1])
        return out


def random_linear(d: int, m: int, rng_state: int, scale: float = 1.0) -> LinearSoftmaxModel:
    """Gaussian-initialized linear model; deterministic given rng_state."""
    d, m, scale = _int_arg("d", d, 1), _int_arg("m", m, 2), _real_arg("scale", scale)
    stream = LcgStream(rng_state)
    vals = [v * scale for v in stream.next_gauss_values(m * d + m)]
    weights = tuple(tuple(vals[r * d: (r + 1) * d]) for r in range(m))
    bias = tuple(vals[m * d:])
    return LinearSoftmaxModel(weights=weights, bias=bias)


def random_mlp(d: int, h: int, m: int, rng_state: int, scale: float = 1.0) -> MlpModel:
    d, h, m = _int_arg("d", d, 1), _int_arg("h", h, 1), _int_arg("m", m, 2)
    scale, stream = _real_arg("scale", scale), LcgStream(rng_state)
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
    """Mean of -log p_y over the rows, summed left to right from +0.0."""
    picked = np.maximum(probs[np.arange(len(ys)), ys], 1e-300).tolist()
    losses = np.negative(np.fromiter(map(math.log, picked), float, len(picked)))
    return float(np.add.accumulate(np.concatenate(([0.0], losses)))[-1]) / len(ys)


def fit_logistic(dataset: LabeledDataset, epochs: int = 500, learning_rate: float = 0.1,
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
    if not isinstance(dataset, LabeledDataset):
        dataset = LabeledDataset(dataset.examples, dataset.d, dataset.m)
    epochs, lr = _int_arg("epochs", epochs, 0), _real_arg("learning_rate", learning_rate)
    d, m = dataset.d, dataset.m
    # Each example followed by 1.0, the input the bias multiplies.
    rows = np.ones((len(dataset.examples), d + 1))
    rows[:, :d] = [x for x, _ in dataset.examples]
    cols = np.ascontiguousarray(rows[:, :d].T)
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
    halvings = 0
    probs = _softmax_rows(_affine_cols(cols, weights, bias))
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
            cand_probs = _softmax_rows(_affine_cols(cols, cand_w, cand_b))
            cand_loss = _mean_crossentropy(cand_probs, ys)
            if cand_loss <= loss:
                stepped = (cand_w, cand_b, cand_probs, cand_loss)
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


def save_model(model: LinearSoftmaxModel | MlpModel, path: str) -> None:
    # The model rule keeps tuples of Python floats, which json writes as arrays.
    if isinstance(model, LinearSoftmaxModel):
        doc = {"kind": "linear", "d": model.d, "m": model.m,
               "weights": model.weights, "bias": model.bias}
    elif isinstance(model, MlpModel):
        doc = {"kind": "mlp", "d": model.d, "m": model.m, "h": model.h,
               "weights": [model.w1, model.w2], "bias": [model.b1, model.b2]}
    else:
        raise DataError(f"cannot save model of type {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str) -> LinearSoftmaxModel | MlpModel:
    """The model a JSON file holds. Only its kind and the MLP's two layers
    are read here; the model classes check the weights, and whatever they
    refuse is a DataError naming the file, as is a "d", "m" or "h" that is
    not the integer the weights give."""
    doc = _read_json_object(path, "model")
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise DataError(f"model file {path}: unknown kind {kind!r}; supported kinds: "
                        + ", ".join(MODEL_KINDS))
    weights, bias = doc.get("weights"), doc.get("bias")
    if kind == "mlp":
        for key, layers in (("weights", weights), ("bias", bias)):
            if not isinstance(layers, list) or len(layers) != 2:
                raise DataError(f'model file {path}: field "{key}" must hold two layers')
    try:
        model = (LinearSoftmaxModel(weights, bias) if kind == "linear"
                 else MlpModel(weights[0], bias[0], weights[1], bias[1]))
    except ConfigError as exc:
        raise DataError(f"model file {path}: {exc}") from exc
    for key in ("d", "m", "h") if kind == "mlp" else ("d", "m"):
        value, size = doc.get(key), getattr(model, key)
        if type(value) is not int or value != size:
            raise DataError(f'model file {path}: field "{key}" must be {size}, '
                            f"the size the weights give, got {value!r}")
    return model
