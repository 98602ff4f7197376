"""Foundational types and pure helpers: masks, masking application with
feature grouping, and argmax class / confidence gap.

A single mask is a plain tuple of 0/1 ints, input vectors and probability
vectors are plain tuples of floats; batches of them are numpy arrays with one
row each (uint8 for masks), and all mask algebra runs on those arrays.
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
        out = [0] * self.d
        for gi, group in enumerate(self.groups):
            for idx in group:
                out[idx] = gi
        return np.array(out, dtype=np.intp)


@runtime_checkable
class ClassifierHandle(Protocol):
    """Opaque black-box classifier: deterministic evaluate, optional gradient.

    evaluate maps a length-d input to m class probabilities summing to one.
    gradient(x, c), when provided, returns the d partial derivatives of the
    probability of class c at x. evaluate_batch(Z), when provided, maps a
    (k, d) float array to the (k, m) array whose row r equals evaluate(Z[r])
    bit for bit, and gradient_batch(Z, classes) to the (k, d) array whose
    row r equals gradient(Z[r], classes[r]) bit for bit; batch callers use
    them in place of one call per row.
    """

    d: int
    m: int

    def evaluate(self, x: Sequence[float]) -> Sequence[float]: ...


def validate_logits_batch(probs, k: int, m: int) -> np.ndarray:
    """Check the probability contract on every row of a (k, m) batch and
    return it as one float array. The first failing row raises ConfigError
    naming its first entry outside [0, 1], else its sum (off 1 by more than
    LOGITS_SUM_TOL)."""
    try:
        arr = np.asarray(probs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"batch output is not a numeric array: {exc}") from exc
    if arr.shape != (k, m):
        raise ConfigError(f"expected a ({k}, {m}) probability batch, got shape {arr.shape}")
    # Column by column from 0: each row is summed left to right, the same on
    # every Python version (sum() compensates from 3.12 on).
    total = np.zeros(k)
    for c in range(m):
        total += arr[:, c]
    off = np.abs(total - 1.0)
    # Whole-array reductions first, which NaN fails too: a reduction along
    # each row of m values is slow. Only a failing batch looks for its row.
    if k and not (arr.size and arr.min() >= 0.0 and arr.max() <= 1.0
                  and off.max() <= LOGITS_SUM_TOL):
        in_range = (arr >= 0.0) & (arr <= 1.0)
        row = int(np.argmin(in_range.all(axis=1) & (off <= LOGITS_SUM_TOL)))
        if not in_range[row].all():
            v = float(arr[row, int(np.argmin(in_range[row]))])
            raise ConfigError(f"probability {v!r} outside [0, 1]")
        raise ConfigError(f"probabilities sum to {float(total[row])!r}, not 1")
    return arr


def evaluate_rows(base: ClassifierHandle, inputs: np.ndarray) -> np.ndarray:
    """The checked (k, m) base outputs for the rows of a (k, d) input array:
    one evaluate_batch call when the handle has it, else one evaluate call
    per row, stacked; validate_logits_batch checks either."""
    if hasattr(base, "evaluate_batch"):
        return validate_logits_batch(base.evaluate_batch(inputs), len(inputs), base.m)
    rows = [base.evaluate(tuple(z)) for z in inputs.tolist()] or np.empty((0, base.m))
    try:
        outputs = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        outputs = None
    # Only rows that do not stack to (k, m) are looked at one by one.
    if outputs is None or outputs.shape != (len(inputs), base.m):
        for r, row in enumerate(rows):
            if np.shape(row) != (base.m,):
                raise ConfigError(f"evaluate row {r}: expected {base.m} class "
                                  f"probabilities, got shape {np.shape(row)}")
    return validate_logits_batch(rows if outputs is None else outputs, len(inputs), base.m)


def mask_apply_rows(x: np.ndarray, masks: np.ndarray, index_map: np.ndarray) -> np.ndarray:
    """Row r is x with every raw feature whose group bit in masks[r] is 0
    set to +0.0, for a (k, n) 0/1 mask array.

    np.where keeps every kept value as it is (signed zeros too) and writes
    +0.0 into dropped groups; x * mask would give -0.0.
    """
    return np.where(masks[:, index_map] != 0, x, 0.0)


def top_classes_and_gaps(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax class (ties broken by lowest index) and top-two probability
    gap of every row of a (k, m) array, as two arrays.

    argmax keeps the first maximum, the lowest index on ties. Partitioning
    each row at m-2 puts its two largest values last, equal on a tie. Where
    one of them is a zero, partition may return -0.0 for it; the gap is the
    same unless the top value is zero too, which no row of probabilities
    summing to one has.
    """
    m = probs.shape[1]
    if m < 2:
        raise ConfigError(f"need at least 2 classes, got {m}")
    top_two = np.partition(probs, m - 2, axis=1)[:, -2:]
    return probs.argmax(axis=1), top_two[:, 1] - top_two[:, 0]


def ones_mask(n: int) -> Mask:
    return (1,) * n


def zeros_mask(n: int) -> Mask:
    return (0,) * n


def popcount(a: Mask) -> int:
    return sum(a)


def mask_array(masks: Sequence[Mask], n: int) -> np.ndarray:
    """The masks as a (k, n) uint8 array, checked as validate_mask checks each.

    A non-empty well-formed batch of numbers is checked as one array whose
    entries are all exactly 0 or 1, and returned as it is when it is such a
    uint8 array already; any other batch goes through validate_mask mask by
    mask, which raises its usual error.
    """
    if (isinstance(masks, np.ndarray) and masks.dtype == np.uint8 and masks.ndim == 2
            and masks.shape[1] == n and masks.size and masks.max() <= 1):
        return masks
    try:
        batch = np.asarray(masks)
    except (ValueError, TypeError, OverflowError):
        batch = None
    if (batch is not None and batch.dtype.kind in "biuf" and batch.ndim == 2
            and batch.shape[1] == n and batch.size and ((batch == 0) | (batch == 1)).all()):
        return batch.astype(np.uint8)
    return np.array([validate_mask(a, n) for a in masks], dtype=np.uint8).reshape(-1, n)


def validate_mask(a: Sequence[int], n: int | None = None) -> Mask:
    """Boundary check for masks coming from files or flags: every entry must
    equal 0 or 1 exactly (True and 1.0 pass, 0.5 does not)."""
    values = list(a)
    if not all(v in (0, 1) for v in values):
        raise DataError(f"mask entries must be 0 or 1, got {values!r}")
    bits = tuple(int(v) for v in values)
    if n is not None and len(bits) != n:
        raise ConfigError(f"mask length {len(bits)} != expected {n}")
    return bits
