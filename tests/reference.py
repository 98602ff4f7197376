"""Definitional reference paths that the tests compare the package against.

`mus_evaluate` is the smoothed classifier as defined: one base query per
atom on tuple masks, averaged with math.fsum in atom-index order. It builds
each effective mask with the scalar mask algebra below and never goes
through the batch driver (`mus_evaluate_pairs`), so the two are independent
computations of the same numbers. `rmus_estimate` is the Monte Carlo mean
under iid Bernoulli masks that the atom average derandomizes, and
`additive_leakage_demo` shows that additive mask noise leaks information
where multiplicative noise does not. `validate_logits` and
`top_class_and_gap` are the scalar probability contract and argmax/gap rule
that the package applies to whole arrays. `greedy_walk` is the greedy
attack one candidate mask at a time, and `greedy_prefix` the stable-prefix
search one prefix at a time. `lime_one_example`,
`shap_one_example` and `finite_difference_gradient` score one example with
its own base queries, as the scorers did before they ran as dataset stages.
`scalar_logits`, `scalar_probs` (`scalar_rows` for a batch) and
`scalar_gradient` are the built-in models' forward pass and analytic
gradient as explicit loops, one input at a time, with `scalar_exp`, the
package's exp algorithm on one Python float; every definitional path
here queries a built-in model through them, so none of them runs the array
kernels it is compared against. `where_masked_rows` masks batches of rows
with np.where, so these paths do not run the package's masking either.
`ratio_radius` is the certified radius of one gap in Python integers, the
oracle of the package's threshold table; `masking_equivalence_check`
compares the batch driver with smoothing the pre-masked input; and
`load_csv_rows` is the CSV loader that checks and converts one row at a
time, the oracle of the package's one-pass parse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from itertools import permutations as all_permutations
from typing import Sequence

import numpy as np

from muscert.core import (
    LOGITS_SUM_TOL,
    ClassifierHandle,
    ConfigError,
    DataError,
    FeatureGrouping,
    Logits,
    Mask,
    Vector,
    _shown,
    mask_array,
)
from muscert.attribution import FD_STEP, LIME_RIDGE, _sampled_orders
from muscert.certify import GAP_MARGIN
from muscert.data import LabeledDataset, _is_numeric, _read_text
from muscert.models import LinearSoftmaxModel, MlpModel
from muscert.noise import iid_bernoulli_bits
from muscert.smoothing import (
    SmoothedModel,
    _premasked_means,
    mus_evaluate_pairs,
)


# Tang's table-driven exp, as the package's models._exp computes it, one
# Python float at a time: CPython's float operations are IEEE and unfused.
# The constants are written out again and the table is rounded from decimal,
# so no part of the package's function is used.
_INV_LN2_128 = float.fromhex("0x1.71547652b82fep+7")
_LN2_HI_128 = float.fromhex("0x1.62e42ff000000p-8")
_LN2_LO_128 = float.fromhex("-0x1.718432a1b0e26p-42")
with localcontext() as _ctx:
    _ctx.prec = 40
    _EXP2_TABLE = [float(Decimal(2) ** (Decimal(j) / 128)) for j in range(128)]


def scalar_exp(x: float) -> float:
    """exp(x) for x <= 0 or NaN by the package's algorithm: x clipped at
    -746, k = round(x * 128/ln2), r = x - k ln2/128 in two parts, the
    degree-5 polynomial of exp(r) - 1, times 2^((k mod 128)/128), then
    scaled by 2^(k // 128)."""
    if x != x:
        return x
    x = max(x, -746.0)
    k = round(x * _INV_LN2_128)
    r = (x - k * _LN2_HI_128) - k * _LN2_LO_128
    p = ((((r * (1 / 120) + 1 / 24) * r + 1 / 6) * r + 0.5) * (r * r)) + r
    scale = _EXP2_TABLE[k & 127]
    return math.ldexp(p * scale + scale, k >> 7)


def _softmax(logits: list[float]) -> Logits:
    """Numerically stable softmax with max subtraction; fixed-order sums."""
    top = max(logits)
    exps = [scalar_exp(v - top) for v in logits]
    total = 0.0
    for e in exps:
        total += e
    return tuple(e / total for e in exps)


def _dot_rows(weights: Sequence[Sequence[float]], bias: Sequence[float],
              x: Sequence[float]) -> list[float]:
    """Row-major matrix-vector product plus bias, accumulated left to right."""
    out = []
    for row, b in zip(weights, bias):
        acc = 0.0
        for w, v in zip(row, x):
            acc += w * v
        out.append(acc + b)
    return out


def _hidden(model: MlpModel, x: Sequence[float]) -> tuple[list[float], list[float]]:
    pre = _dot_rows(model.w1, model.b1, x)
    act = [v if v > 0.0 else 0.0 for v in pre]
    return pre, act


def scalar_logits(base: LinearSoftmaxModel | MlpModel, x: Sequence[float]) -> list[float]:
    """A built-in model's output logits at x, before the softmax, as loops."""
    if len(x) != base.d:
        raise ConfigError(f"input length {len(x)} != d={base.d}")
    if isinstance(base, LinearSoftmaxModel):
        return _dot_rows(base.weights, base.bias, x)
    return _dot_rows(base.w2, base.b2, _hidden(base, x)[1])


def scalar_probs(base: ClassifierHandle, x: Sequence[float]) -> Logits:
    """The class probabilities at x: a built-in model's forward pass as
    loops, base.evaluate(x) for any other handle."""
    if not isinstance(base, (LinearSoftmaxModel, MlpModel)):
        return base.evaluate(x)
    return _softmax(scalar_logits(base, x))


def scalar_rows(base: ClassifierHandle, inputs: np.ndarray) -> np.ndarray:
    """The (k, m) array of scalar_probs at each row of a (k, d) array."""
    return np.array([scalar_probs(base, z) for z in inputs.tolist()]).reshape(-1, base.m)


def scalar_gradient(base: ClassifierHandle, x: Sequence[float], c: int) -> Vector:
    """d p_c / d x: a built-in model's analytic gradient as loops,
    base.gradient(x, c) for any other handle."""
    if not isinstance(base, (LinearSoftmaxModel, MlpModel)):
        return base.gradient(x, c)
    if not 0 <= c < base.m:
        raise ConfigError(f"class {c} outside 0..{base.m - 1}")
    p = scalar_probs(base, x)
    if isinstance(base, LinearSoftmaxModel):
        # p_c * (W_c - sum_j p_j W_j).
        out = []
        for k in range(base.d):
            mix = 0.0
            for j in range(base.m):
                mix += p[j] * base.weights[j][k]
            out.append(p[c] * (base.weights[c][k] - mix))
        return tuple(out)
    pre, _ = _hidden(base, x)
    # d p_c / d z_j at the output logits z = W2 act + b2.
    dz = [p[c] * ((1.0 if j == c else 0.0) - p[j]) for j in range(base.m)]
    # Back through the output layer into the hidden activations.
    dact = []
    for t in range(base.h):
        acc = 0.0
        for j in range(base.m):
            acc += dz[j] * base.w2[j][t]
        dact.append(acc)
    # Through ReLU (strictly positive preactivations only) into the input.
    out = []
    for k in range(base.d):
        acc = 0.0
        for t in range(base.h):
            if pre[t] > 0.0:
                acc += dact[t] * base.w1[t][k]
        out.append(acc)
    return tuple(out)


def validate_logits(p: Sequence[float], m: int | None = None) -> Logits:
    """Check the probability-vector contract; raise ConfigError otherwise."""
    probs = tuple(float(v) for v in p)
    if m is not None and len(probs) != m:
        raise ConfigError(f"expected {m} class probabilities, got {len(probs)}")
    for v in probs:
        if not (0.0 <= v <= 1.0):
            raise ConfigError(f"probability {v!r} outside [0, 1]")
    if abs(sum(probs) - 1.0) > LOGITS_SUM_TOL:
        raise ConfigError(f"probabilities sum to {sum(probs)!r}, not 1")
    return probs


def top_class_and_gap(p: Sequence[float]) -> tuple[int, float]:
    """Argmax class (ties broken by lowest index) and top-two probability gap."""
    if len(p) < 2:
        raise ConfigError(f"need at least 2 classes, got {len(p)}")
    best = 0
    for i in range(1, len(p)):
        if p[i] > p[best]:
            best = i
    second = None
    for i, v in enumerate(p):
        if i == best:
            continue
        if second is None or v > second:
            second = v
    return best, p[best] - second


def _check_same_length(a: Sequence, b: Sequence, what: str) -> None:
    if len(a) != len(b):
        raise ConfigError(f"{what}: lengths {len(a)} and {len(b)} differ")


def mask_apply(x: Sequence[float], alpha: Mask, grouping: FeatureGrouping) -> Vector:
    """Zero out every raw feature whose group bit is 0; keep the rest as-is."""
    if len(alpha) != grouping.n:
        raise ConfigError(
            f"mask length {len(alpha)} != group count {grouping.n}"
        )
    if len(x) != grouping.d:
        raise ConfigError(f"input length {len(x)} != raw dimension {grouping.d}")
    out = list(x)
    for bit, group in zip(alpha, grouping.groups):
        if not bit:
            for idx in group:
                out[idx] = 0.0
    return tuple(out)


def mask_and(a: Mask, b: Mask) -> Mask:
    _check_same_length(a, b, "mask_and")
    return tuple(ai & bi for ai, bi in zip(a, b))


def mask_or(a: Mask, b: Mask) -> Mask:
    _check_same_length(a, b, "mask_or")
    return tuple(ai | bi for ai, bi in zip(a, b))


def mus_evaluate(model: SmoothedModel, x: Sequence[float], alpha: Mask) -> Logits:
    """Average the base output over the q noise atoms applied to alpha.

    Each atom s yields an effective mask mu OR (alpha AND s); the base
    classifier is invoked exactly q times and the per-class mean is taken
    with math.fsum in atom-index order.
    """
    grouping = model.grouping
    if len(x) != grouping.d:
        raise ConfigError(f"input length {len(x)} != d={grouping.d}")
    mask_array([alpha], grouping.n)
    mu = model.mu if model.mu is not None else (0,) * grouping.n
    m = model.base.m
    q = model.cfg.q
    columns: list[list[float]] = [[] for _ in range(m)]
    for atom in model.atoms.tolist():
        effective = mask_or(mu, mask_and(alpha, atom))
        p = scalar_probs(model.base, mask_apply(x, effective, grouping))
        validate_logits(p, m)
        for c in range(m):
            columns[c].append(p[c])
    return tuple(math.fsum(col) / q for col in columns)


def greedy_walk(model: SmoothedModel, x: Sequence[float], phi: Mask, budget: int,
                mode: str) -> tuple[bool, int, Mask | None]:
    """(found, radius, witness) of the greedy attack as defined.

    From phi (inc) or all-ones (dec), each step flips the candidate bit whose
    mask gives the smallest reference-class margin (reference mean less the
    best other mean), the lowest bit on ties, and the walk stops at the first
    class change or after `budget` steps. Candidates are the free bits
    (outside phi) not yet flipped.
    """
    flip_to = 1 if mode == "inc" else 0
    alpha = list(phi) if mode == "inc" else [1] * len(phi)
    ref, _ = top_class_and_gap(mus_evaluate(model, x, tuple(alpha)))
    for step in range(1, budget + 1):
        best = None
        for i, bit in enumerate(phi):
            if bit or alpha[i] == flip_to:
                continue
            trial = alpha.copy()
            trial[i] = flip_to
            p = mus_evaluate(model, x, tuple(trial))
            margin = p[ref] - max(v for c, v in enumerate(p) if c != ref)
            if best is None or margin < best[0]:
                best = (margin, i, top_class_and_gap(p)[0] != ref)
        _, i, flipped = best
        alpha[i] = flip_to
        if flipped:
            return True, step, tuple(alpha)
    return False, budget, None


def greedy_prefix(model: SmoothedModel, x: Sequence[float], scores: Sequence[float],
                  r_inc_target: int, r_dec_target: int) -> tuple[Mask, bool]:
    """(mask, met) of the stable-prefix search as defined: the shortest
    prefix of the groups by descending score (lower index first on ties)
    that keeps the all-ones class with an incremental radius of at least
    r_inc_target, where the all-ones gap certifies a decremental radius of
    at least r_dec_target; (all-ones, False) when no prefix qualifies."""
    n, lam, q = model.grouping.n, model.cfg.lambda_num, model.cfg.q
    pred, gap_at_ones = top_class_and_gap(mus_evaluate(model, x, (1,) * n))
    if ratio_radius(gap_at_ones, lam, q)[1] >= r_dec_target:
        ordering = sorted(range(n), key=lambda i: (-scores[i], i))
        for length in range(1, n + 1):
            mask = tuple(1 if i in ordering[:length] else 0 for i in range(n))
            c, gap = top_class_and_gap(mus_evaluate(model, x, mask))
            if c == pred and ratio_radius(gap, lam, q)[1] >= r_inc_target:
                return mask, True
    return (1,) * n, False


def where_masked_rows(x: np.ndarray, masks: np.ndarray, index_map: np.ndarray) -> np.ndarray:
    """Row r is x with every raw feature whose group bit in masks[r] is 0 set
    to +0.0, by np.where, which keeps every kept value's bits: the same rows
    as the pair driver's core._zero_unless, which selects by a bit-and instead."""
    return np.where(masks[:, index_map] != 0, x, 0.0)


def rmus_estimate(base: ClassifierHandle, grouping: FeatureGrouping,
                  x: Sequence[float], alpha: Mask, lam: float,
                  samples: int, rng_state: int) -> Logits:
    """Monte Carlo mean of the base output under iid Bernoulli(lam) masks.

    Deterministic given rng_state; used to cross-check the exact atom
    average against the iid-noise definition it derandomizes.
    """
    if len(x) != grouping.d:
        raise ConfigError(f"input length {len(x)} != d={grouping.d}")
    alpha = tuple(mask_array([alpha], grouping.n)[0].tolist())
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    draws = iid_bernoulli_bits(lam, grouping.n, samples, rng_state)
    masks = draws & np.array(alpha, dtype=np.uint8)
    inputs = where_masked_rows(np.asarray(x, dtype=float), masks, grouping.index_map())
    columns = scalar_rows(base, inputs).T.tolist()
    return tuple(math.fsum(col) / samples for col in columns)


@dataclass(frozen=True)
class LeakageReport:
    """Four expectations comparing additive and multiplicative mask noise."""

    n: int
    additive_lhs: float
    additive_rhs: float
    multiplicative_lhs: float
    multiplicative_rhs: float

    @property
    def additive_leaks(self) -> bool:
        return self.additive_lhs > self.additive_rhs

    @property
    def multiplicative_matches(self) -> bool:
        return self.multiplicative_lhs.hex() == self.multiplicative_rhs.hex()


def _nonzero_indicator(z: Sequence[float]) -> float:
    return 0.0 if all(v == 0.0 for v in z) else 1.0


def additive_leakage_demo(n: int) -> LeakageReport:
    """Show that adding noise to the mask breaks pre-masking equivalence.

    The classifier fires on any nonzero input. Two equiprobable noise
    vectors (+1 and -1 everywhere) are either added to the mask or
    multiplied into it; with x all-ones and alpha all-zeros the additive
    form sees the unmasked input through the shifted mask while the
    pre-masked side stays at zero.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    x = tuple(1.0 for _ in range(n))
    alpha = tuple(0.0 for _ in range(n))
    noises = [tuple(1.0 for _ in range(n)), tuple(-1.0 for _ in range(n))]

    def additive(point: Vector, mask: Vector) -> float:
        total = 0.0
        for s in noises:
            shifted = tuple(a + e for a, e in zip(mask, s))
            total += _nonzero_indicator(tuple(p * a for p, a in zip(point, shifted)))
        return total / len(noises)

    def multiplicative(point: Vector, mask: Vector) -> float:
        total = 0.0
        for s in noises:
            scaled = tuple(a * e for a, e in zip(mask, s))
            total += _nonzero_indicator(tuple(p * a for p, a in zip(point, scaled)))
        return total / len(noises)

    premasked = tuple(p * a for p, a in zip(x, alpha))
    ones = tuple(1.0 for _ in range(n))
    return LeakageReport(
        n=n,
        additive_lhs=additive(x, alpha),
        additive_rhs=additive(premasked, ones),
        multiplicative_lhs=multiplicative(x, alpha),
        multiplicative_rhs=multiplicative(premasked, ones),
    )


def lime_one_example(base: ClassifierHandle, x: Sequence[float], grouping: FeatureGrouping,
                     samples: int, kernel_width: float, rng_state: int) -> tuple[float, ...]:
    """The LIME surrogate of one example: class from scalar_probs(x), the masked
    rows through scalar_rows, the normal equations solved by numpy."""
    n = grouping.n
    c, _ = top_class_and_gap(scalar_probs(base, x))
    bits = iid_bernoulli_bits(0.5, n, samples, rng_state)
    design = np.ones((samples, n + 1))
    design[:, 1:] = bits
    inputs = where_masked_rows(np.asarray(x, dtype=float), bits, grouping.index_map())
    targets = scalar_rows(base, inputs)[:, c]
    kernel = np.array([scalar_exp(-(dropped * dropped) / (kernel_width * kernel_width))
                       for dropped in range(n + 1)])
    weights = kernel[n - bits.sum(axis=1, dtype=np.intp)]
    wx = design.T * weights
    lhs = wx @ design + LIME_RIDGE * np.eye(n + 1)
    return tuple(np.linalg.solve(lhs, wx @ targets)[1:].tolist())


def shap_one_example(base: ClassifierHandle, x: Sequence[float], grouping: FeatureGrouping,
                     permutations: int, rng_state: int,
                     exhaustive: bool = False) -> tuple[float, ...]:
    """The Shapley estimate of one example: class from scalar_probs(x), every
    coalition of every order (empty and full included) deduplicated and sent
    through scalar_rows, each group's gains summed with math.fsum."""
    n = grouping.n
    c, _ = top_class_and_gap(scalar_probs(base, x))
    if exhaustive:
        orders = np.array(list(all_permutations(range(n))), dtype=np.intp).reshape(-1, n)
    else:
        orders = _sampled_orders(n, permutations, rng_state)
    rank = np.empty((len(orders), n), dtype=np.intp)
    rank[np.arange(len(orders))[:, None], orders] = np.arange(n)
    coalitions = (rank[:, None, :] < np.arange(n + 1)[:, None]).astype(np.uint8).reshape(-1, n)
    slot: dict[bytes, int] = {}
    inverse = [slot.setdefault(row.tobytes(), len(slot)) for row in coalitions]
    distinct = np.frombuffer(b"".join(slot), dtype=np.uint8).reshape(-1, n)
    inputs = where_masked_rows(np.asarray(x, dtype=float), distinct, grouping.index_map())
    values = scalar_rows(base, inputs)[:, c][inverse].reshape(len(orders), n + 1)
    gains = values[:, 1:] - values[:, :-1]
    contrib = np.take_along_axis(gains, rank, axis=1).T.tolist()
    return tuple(math.fsum(col) / len(orders) for col in contrib)


def finite_difference_gradient(base: ClassifierHandle, x: Sequence[float],
                               c: int) -> list[float]:
    """Central differences of p_c, two scalar_probs calls per feature."""
    grad = []
    for j in range(len(x)):
        up = list(x)
        down = list(x)
        up[j] += FD_STEP
        down[j] -= FD_STEP
        grad.append((scalar_probs(base, up)[c] - scalar_probs(base, down)[c]) / (2 * FD_STEP))
    return grad


def ratio_radius(gap: float, lambda_num: int, q: int) -> tuple[float, int]:
    """(real, integer) certified radius of one gap: the real radius is
    gap * q / (2 * lambda_num), and the integer radius the largest r >= 0
    with 2 * lambda_num * r < (gap - GAP_MARGIN) * q, compared exactly on
    the integer ratios of the two floats."""
    real = gap * q / (2 * lambda_num)
    num, den = gap.as_integer_ratio()
    margin_num, margin_den = GAP_MARGIN.as_integer_ratio()
    # r < (num/den - margin_num/margin_den) * q / (2 * lambda_num), as integers
    excess = (num * margin_den - margin_num * den) * q
    return real, max(0, (excess - 1) // (2 * lambda_num * den * margin_den))


def masking_equivalence_check(model: SmoothedModel, x: Sequence[float],
                              alphas: Sequence[Mask]) -> bool:
    """True iff smoothing each mask equals smoothing the pre-masked input,
    bit for bit.

    The left side is mus_evaluate_pairs on x under alphas, the right side
    the package's _premasked_means. With a noise-exemption mask mu set, the
    identity is only guaranteed when alpha keeps everything mu keeps, so
    that case is a precondition for every alpha.
    """
    masks = mask_array(alphas, model.grouping.n)
    if model.mu is not None and not (masks >= model.mu).all():
        raise ConfigError("equivalence requires alpha to cover the noise-exempt mask mu")
    lhs = mus_evaluate_pairs(model, [x], np.zeros(len(masks), np.intp), masks)
    rhs = _premasked_means(model, x, masks, model.mu)
    return lhs.tobytes() == rhs.tobytes()


def load_csv_rows(path: str) -> LabeledDataset:
    """load_csv_dataset one row at a time: each row is split, checked for
    its width and converted, features then label, and the first row that
    fails raises; the rows then go to the dataset rule."""
    lines = _read_text(path, "dataset").split("\n")
    rows = [(i + 1, ln.split(",")) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise DataError(f"dataset file {path} has no rows")
    if not any(_is_numeric(f) for f in rows[0][1]):
        rows = rows[1:]
        if not rows:
            raise DataError(f"dataset file {path} has a header but no data rows")
    width = len(rows[0][1])
    if width < 2:
        raise DataError(f"{path} row {rows[0][0]}: need at least 2 columns, got {width}")
    examples = []
    for rownum, fields in rows:
        if len(fields) != width:
            raise DataError(f"{path} row {rownum}: {len(fields)} fields, expected {width}")
        try:
            x = tuple(map(float, fields[:-1]))
        except ValueError as exc:
            bad = next(f for f in fields[:-1] if not _is_numeric(f))
            raise DataError(f"{path} row {rownum}: non-numeric feature: could not convert "
                            f"string to float: {_shown(bad)}") from exc
        try:
            y = int(fields[-1])
        except ValueError as exc:
            raise DataError(f"{path} row {rownum}: label {_shown(fields[-1].strip())} "
                            "is not an integer") from exc
        examples.append((x, y))
    try:
        return LabeledDataset(examples=tuple(examples), d=width - 1,
                              m=max(2, max(y for _, y in examples) + 1))
    except ConfigError as exc:
        raise DataError(f"dataset file {path}: {exc}") from exc
