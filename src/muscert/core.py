"""Foundational types and pure helpers: masks, masking application with
feature grouping, and argmax class / confidence gap.

A single mask is a plain tuple of 0/1 ints, input vectors and probability
vectors are plain tuples of floats; batches of them are numpy arrays with one
row each (uint8 for masks), and all mask algebra runs on those arrays.
Everything in this module is pure and immutable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Partition of raw feature indices 0..d-1 into n jointly-masked groups.

    The one grouping rule: d >= 1 and each index pass the integer rule, and
    the groups, a batch of nonempty batches, hold each of 0..d-1 once; else
    ConfigError. Kept as Python ints in tuples, beside the index map."""

    groups: tuple[tuple[int, ...], ...]
    d: int
    _index_map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = _int_arg('field "d"', self.d, 1)
        try:
            groups = tuple(map(tuple, self.groups))
        except TypeError:
            raise ConfigError('field "groups" must be a list of index lists') from None
        owner: dict[int, int] = {}  # index -> group; grows with the indices listed, not d
        converted = False
        for gi, group in enumerate(groups):
            if not group:
                raise ConfigError(f"group {gi} is empty")
            for idx in group:
                if type(idx) is not int or not 0 <= idx < d:
                    idx, converted = _int_arg(f"group {gi} index", idx, 0, d - 1), True
                if idx in owner:
                    raise ConfigError(f"raw index {idx} appears in more than one group")
                owner[idx] = gi
        if len(owner) != d:
            first = next(i for i in range(d) if i not in owner)
            raise ConfigError(f"groups do not cover raw index {first} "
                              f"({d - len(owner)} of {d} indices missing)")
        groups = tuple(tuple(map(int, group)) for group in groups) if converted else groups
        index_map = np.fromiter(map(owner.__getitem__, range(d)), np.intp, d)
        index_map.setflags(write=False)
        for name, value in (("groups", groups), ("d", d), ("_index_map", index_map)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.groups)

    @classmethod
    def trivial(cls, d: int) -> "FeatureGrouping":
        """Each raw feature is its own group (the default)."""
        d = _int_arg("feature dimension", d, 1)
        return cls(groups=tuple((i,) for i in range(d)), d=d)

    @classmethod
    def from_json_dict(cls, doc: object) -> "FeatureGrouping":
        """The grouping a document holds; whatever the rule refuses is a DataError."""
        if not (isinstance(doc, dict) and "d" in doc and "groups" in doc):
            raise DataError('grouping document must be an object with keys "d" and "groups"')
        try:
            return cls(groups=doc["groups"], d=doc["d"])
        except ConfigError as exc:
            raise DataError(str(exc)) from exc

    def to_json_dict(self) -> dict:
        return {"d": self.d, "groups": [list(g) for g in self.groups]}

    def index_map(self) -> np.ndarray:
        """Group index of each raw feature, as a read-only length-d intp array."""
        return self._index_map


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


def _shown(value) -> str:
    """repr(value) for a rule's message, cut to 80 characters ending in
    "..." when longer, so that no message grows with the value it names. An
    int past Python's digit limit, which repr refuses, shows its bit length."""
    try:
        text = repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{'negative ' * (value < 0)}int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} holding an int too long to show>"
    return text if len(text) <= 80 else text[:77] + "..."


def _int_arg(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """The integer rule: value as a Python int when it is a Python or numpy
    integer in [lo, hi] (either bound optional). A bool is not an integer,
    nor is any float, even 2.0; either raises ConfigError naming `name`."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {_shown(value)}")
        value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise ConfigError(f"{name} must be >= {lo}, got {_shown(value)}" if hi is None
                          else f"{name} must be in [{lo}, {hi}], got {_shown(value)}")
    return value


def _int_args(name: str, values) -> np.ndarray:
    """The integer rule on a batch: values as an intp array. An integer
    array passes as it is; any other batch is checked entry by entry, and
    its first entry that _int_arg refuses, or that no intp holds, raises."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        batch, intp = np.asarray(values, dtype=object), np.iinfo(np.intp)
        values = np.array([_int_arg(name, v, int(intp.min), int(intp.max))
                           for v in batch.ravel().tolist()], dtype=np.intp).reshape(batch.shape)
    return values.astype(np.intp, copy=False)


def _real_arg(name: str, value, lo: float | None = None, hi: float | None = None) -> float:
    """The real-number rule: value as a finite Python float when it is a
    Python or numpy int or float in [lo, hi] (either bound optional); else,
    a bool, string, list, NaN, +-inf or too large an int, ConfigError."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ConfigError(f"{name} must be a number, got {_shown(value)}")
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{name} is too large for a float") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise ConfigError(f"{name} must be >= {lo}, got {value!r}" if hi is None
                          else f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def _real_row(name: str, values, width: int | None = None) -> tuple[float, ...]:
    """The real-number rule on a row: values as a tuple of `width` (when
    None, at least 1) Python floats, entry j checked as "{name} entry {j}"."""
    try:
        row = tuple(values)
    except TypeError:
        raise ConfigError(f"{name} must be a list of numbers, got {_shown(values)}") from None
    if (len(row) != width) if width else not row:
        raise ConfigError(f"{name} holds {len(row)} numbers, expected {width or 'at least 1'}")
    # A row of finite Python floats needs no look at each entry, nor a conversion.
    if set(map(type, row)) != {float} or not all(map(math.isfinite, row)):
        row = tuple(_real_arg(f"{name} entry {j}", v) for j, v in enumerate(row))
    return row


def _float_rows(xs, d: int) -> np.ndarray:
    """The input-row rule: xs as a (k, d) float array. Rows that are
    ragged, hold anything but numbers (bools count as 0 and 1) or are not
    d wide raise ConfigError. A one-row call passes [x]."""
    try:
        rows = np.asarray(xs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"input rows do not form a (k, d={d}) array") from exc
    if rows.dtype.kind not in "biuf":
        raise ConfigError(f"input rows must hold numbers, got dtype {rows.dtype}")
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ConfigError(f"input rows of shape {rows.shape} are not (k, d={d})")
    return rows.astype(float, copy=False)


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
    per row, each of shape (m,), stacked; validate_logits_batch checks either."""
    if hasattr(base, "evaluate_batch"):
        return validate_logits_batch(base.evaluate_batch(inputs), len(inputs), base.m)
    rows = [base.evaluate(tuple(z)) for z in inputs.tolist()]
    for r, row in enumerate(rows):
        if np.shape(row) != (base.m,):
            raise ConfigError(f"evaluate row {r}: expected {base.m} class "
                              f"probabilities, got shape {np.shape(row)}")
    return validate_logits_batch(rows or np.empty((0, base.m)), len(inputs), base.m)


def _zero_unless(keep: np.ndarray, values: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """np.where(keep, values, 0.0) for a bool or 0/1 keep and float64 values
    broadcast to keep's shape, new or into the float64 array out: the int64
    bits of values times keep, so kept values keep their bits (-0.0, NaN
    payloads, infinities) and dropped ones become +0.0. One ufunc, as numpy
    copies a strided out that is also an input (an in-place AND) first."""
    bits = None if out is None else out.view(np.int64)
    return np.multiply(keep, values.view(np.int64), dtype=np.int64, out=bits).view(np.float64)


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


def mask_array(masks, n: int) -> np.ndarray:
    """The mask rule: masks as a (k, n) uint8 array. They must be a batch of
    numbers that all equal 0 or 1 exactly (True and 1.0 pass; 0.5, NaN and
    2**70 do not), else ConfigError names the first mask that is not n of
    them. A uint8 array passes with one max() check and comes back as it is;
    an empty batch comes back as (0, n). A one-mask call passes [a].
    """
    if (isinstance(masks, np.ndarray) and masks.dtype == np.uint8 and masks.ndim == 2
            and masks.shape[1] == n and (not masks.size or masks.max() <= 1)):
        return masks
    if (batch := _zero_one_rows(masks, n)) is not None:
        return batch
    try:
        bad = next((a for a in masks if _zero_one_rows([a], n) is None), masks)
    except TypeError:
        bad = masks
    raise ConfigError(f"a mask must be {n} entries of 0 or 1, got {_shown(bad)}")


def _zero_one_rows(masks, n: int) -> np.ndarray | None:
    """masks as a (k, n) uint8 array if they are a batch of 0s and 1s."""
    try:
        batch = np.asarray(masks)
    except (TypeError, ValueError):
        return None
    if batch.shape[:1] == (0,) or (batch.dtype.kind in "biuf" and batch.ndim == 2
                                   and batch.shape[1] == n
                                   and ((batch == 0) | (batch == 1)).all()):
        return batch.astype(np.uint8).reshape(len(batch), n)
    return None
