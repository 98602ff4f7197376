"""Foundational types and pure helpers: masks, the subset partial order,
masking application with feature grouping, and argmax class / confidence gap.

Masks are plain tuples of 0/1 ints, input vectors and probability vectors are
plain tuples of floats; batches of them are numpy arrays with one row each.
Everything in this module is pure and immutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

Mask = tuple[int, ...]
Vector = tuple[float, ...]
Logits = tuple[float, ...]

# Tolerance for the "probabilities sum to one" contract on classifier outputs.
LOGITS_SUM_TOL = 1e-9


class MuscertError(Exception):
    """Base class for all errors raised by this package.

    Each subclass is one CLI exit code; the message says what went wrong.
    """


class ConfigError(MuscertError):
    """A flag, configuration value, shape or call precondition is wrong, an
    enumeration guard is exceeded, a numerical procedure failed, or a
    classifier broke the probability contract (exit code 1)."""


class DataError(MuscertError):
    """An input file or dataset is missing, malformed or breaks its schema
    (exit code 2)."""


class VerificationError(MuscertError):
    """A self-check or soundness verification failed (exit code 3)."""


@dataclass(frozen=True)
class FeatureGrouping:
    """Partition of raw feature indices 0..d-1 into n jointly-masked groups."""

    groups: tuple[tuple[int, ...], ...]
    d: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for gi, group in enumerate(self.groups):
            if len(group) == 0:
                raise DataError(f"group {gi} is empty")
            for idx in group:
                if not isinstance(idx, int) or isinstance(idx, bool):
                    raise DataError(f"group {gi} holds non-integer index {idx!r}")
                if idx < 0 or idx >= self.d:
                    raise DataError(
                        f"group {gi} index {idx} outside raw range 0..{self.d - 1}"
                    )
                if idx in seen:
                    raise DataError(f"raw index {idx} appears in more than one group")
                seen.add(idx)
        if len(seen) != self.d:
            missing = sorted(set(range(self.d)) - seen)
            raise DataError(f"groups do not cover raw indices {missing}")

    @property
    def n(self) -> int:
        return len(self.groups)

    @classmethod
    def trivial(cls, d: int) -> "FeatureGrouping":
        """Each raw feature is its own group (the default)."""
        if d < 1:
            raise ConfigError(f"feature dimension must be >= 1, got {d}")
        return cls(groups=tuple((i,) for i in range(d)), d=d)

    @classmethod
    def from_json_dict(cls, doc: object) -> "FeatureGrouping":
        if not isinstance(doc, dict):
            raise DataError("grouping document must be an object")
        if "d" not in doc or "groups" not in doc:
            raise DataError('grouping document requires keys "d" and "groups"')
        d = doc["d"]
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise DataError(f'field "d" must be a positive integer, got {d!r}')
        groups = doc["groups"]
        if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
            raise DataError('field "groups" must be a list of index lists')
        return cls(groups=tuple(tuple(g) for g in groups), d=d)

    def to_json_dict(self) -> dict:
        return {"d": self.d, "groups": [list(g) for g in self.groups]}

    def index_map(self) -> np.ndarray:
        """Group index of each raw feature, as a length-d integer array."""
        out = np.empty(self.d, dtype=np.intp)
        for gi, group in enumerate(self.groups):
            out[list(group)] = gi
        return out


@runtime_checkable
class ClassifierHandle(Protocol):
    """Opaque black-box classifier: deterministic evaluate, optional gradient.

    evaluate maps a length-d input to m class probabilities summing to one.
    gradient(x, c), when provided, returns the d partial derivatives of the
    probability of class c at x. evaluate_batch(Z), when provided, maps a
    (k, d) float array to the (k, m) array whose row r equals evaluate(Z[r])
    bit for bit; batch callers use it in place of one evaluate call per row.
    """

    d: int
    m: int

    def evaluate(self, x: Sequence[float]) -> Sequence[float]: ...


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


def validate_logits_batch(probs, k: int, m: int) -> np.ndarray:
    """validate_logits for every row of a (k, m) batch, as one float array."""
    try:
        arr = np.asarray(probs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"batch output is not a numeric array: {exc}") from exc
    if arr.shape != (k, m):
        raise ConfigError(f"expected a ({k}, {m}) probability batch, got shape {arr.shape}")
    # Column by column from 0, the order in which sum() adds one row.
    total = np.zeros(k)
    for c in range(m):
        total += arr[:, c]
    ok = ((arr >= 0.0) & (arr <= 1.0)).all(axis=1) & (np.abs(total - 1.0) <= LOGITS_SUM_TOL)
    if not ok.all():
        validate_logits(arr[int(np.argmin(ok))].tolist(), m)
    return arr


def evaluate_rows(base: ClassifierHandle, inputs: np.ndarray) -> np.ndarray:
    """The checked (k, m) base outputs for the rows of a (k, d) input array.

    One evaluate_batch call when the handle has it; otherwise one evaluate
    call per row, each checked by validate_logits.
    """
    if hasattr(base, "evaluate_batch"):
        return validate_logits_batch(base.evaluate_batch(inputs), len(inputs), base.m)
    rows = [validate_logits(base.evaluate(tuple(z)), base.m) for z in inputs.tolist()]
    return np.array(rows, dtype=float).reshape(len(inputs), base.m)


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


def mask_apply_rows(x: np.ndarray, masks: np.ndarray, index_map: np.ndarray) -> np.ndarray:
    """Row r is mask_apply(x, masks[r]) for a (k, n) 0/1 mask array.

    np.where keeps every kept value as it is (signed zeros too) and writes
    +0.0 into dropped groups, as mask_apply does; x * mask would give -0.0.
    """
    return np.where(masks[:, index_map] != 0, x, 0.0)


def unique_masks(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a (k, n) 0/1 mask array, in first-seen order, and
    each row's index among them.

    Rows are keyed by their bit-packed bytes in a dict, which needs no sort.
    """
    packed = np.packbits(masks, axis=1)
    width = packed.shape[1]
    raw = packed.tobytes()
    slots: dict[bytes, int] = {}
    inverse = np.array([slots.setdefault(raw[i:i + width], len(slots))
                        for i in range(0, len(raw), width)], dtype=np.intp)
    distinct = np.empty((len(slots), masks.shape[1]), dtype=masks.dtype)
    distinct[inverse] = masks
    return distinct, inverse


def mask_leq(a: Mask, b: Mask) -> bool:
    """True iff every feature selected by a is also selected by b."""
    _check_same_length(a, b, "mask_leq")
    return all(not ai or bi for ai, bi in zip(a, b))


def l1_distance(a: Mask, b: Mask) -> int:
    """Number of positions where the two masks differ."""
    _check_same_length(a, b, "l1_distance")
    return sum(ai != bi for ai, bi in zip(a, b))


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


def mask_and(a: Mask, b: Mask) -> Mask:
    _check_same_length(a, b, "mask_and")
    return tuple(ai & bi for ai, bi in zip(a, b))


def mask_or(a: Mask, b: Mask) -> Mask:
    _check_same_length(a, b, "mask_or")
    return tuple(ai | bi for ai, bi in zip(a, b))


def ones_mask(n: int) -> Mask:
    return (1,) * n


def zeros_mask(n: int) -> Mask:
    return (0,) * n


def popcount(a: Mask) -> int:
    return sum(a)


def validate_mask(a: Sequence[int], n: int | None = None) -> Mask:
    """Boundary check for masks coming from files or flags."""
    bits = tuple(int(v) for v in a)
    if any(v not in (0, 1) for v in bits):
        raise DataError(f"mask entries must be 0 or 1, got {list(a)!r}")
    if n is not None and len(bits) != n:
        raise ConfigError(f"mask length {len(bits)} != expected {n}")
    return bits
