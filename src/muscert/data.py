"""Dataset loading, synthetic blob generation, and grouping files."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .core import ConfigError, DataError, FeatureGrouping, Vector
from .noise import LcgStream


@dataclass(frozen=True)
class LabeledDataset:
    """Fixed-width feature vectors with integer class labels."""

    examples: tuple[tuple[Vector, int], ...]
    d: int
    m: int

    def __post_init__(self) -> None:
        if len(self.examples) == 0:
            raise DataError("dataset has no examples")
        for i, (x, y) in enumerate(self.examples):
            if len(x) != self.d:
                raise DataError(f"example {i} has {len(x)} features, expected {self.d}")
            if not 0 <= y < self.m:
                raise DataError(f"example {i} label {y} outside [0, {self.m})")

    def __len__(self) -> int:
        return len(self.examples)

    @classmethod
    def from_examples(cls, examples) -> "LabeledDataset":
        rows = tuple((tuple(float(v) for v in x), int(y)) for x, y in examples)
        if not rows:
            raise DataError("dataset has no examples")
        labels = [y for _, y in rows]
        if min(labels) < 0:
            raise DataError(f"negative label {min(labels)}")
        return cls(examples=rows, d=len(rows[0][0]), m=max(2, max(labels) + 1))


def _is_numeric(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def load_csv_dataset(path: str, label_col: int | None = None) -> LabeledDataset:
    """Parse comma-separated rows of decimals; one column holds the label.

    The label column defaults to the last one. A first row whose fields
    are all non-numeric is treated as a header and skipped. Features must be
    finite: nan and inf parse as floats but cannot be masked or certified.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
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
    col = width - 1 if label_col is None else label_col
    if not 0 <= col < width:
        raise ConfigError(f"label column {col} outside 0..{width - 1}")
    examples = []
    for rownum, fields in rows:
        if len(fields) != width:
            raise DataError(
                f"{path} row {rownum}: {len(fields)} fields, expected {width}"
            )
        try:
            x = tuple(float(f) for i, f in enumerate(fields) if i != col)
        except ValueError as exc:
            raise DataError(f"{path} row {rownum}: non-numeric feature: {exc}") from exc
        for v in x:
            if not math.isfinite(v):
                raise DataError(f"{path} row {rownum}: feature {v!r} is not finite")
        raw_label = fields[col].strip()
        try:
            y = int(raw_label)
        except ValueError as exc:
            raise DataError(
                f"{path} row {rownum}: label {raw_label!r} is not an integer"
            ) from exc
        if y < 0:
            raise DataError(f"{path} row {rownum}: negative label {y}")
        examples.append((x, y))
    return LabeledDataset.from_examples(examples)


def save_csv_dataset(dataset: LabeledDataset, path: str) -> None:
    """Write features then label per row, shortest round-trip floats."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in dataset.examples:
            fh.write(",".join(repr(v) for v in x) + f",{y}\n")


def synth_blobs(n_per_class: int, d: int, m: int, separation: float,
                rng_state: int) -> LabeledDataset:
    """Isotropic unit-variance Gaussian clusters, one per class.

    Class c is centered at separation times the (c mod d)-th basis vector.
    Examples come out class-major; draws consume one shared stream so the
    dataset is a pure function of rng_state.
    """
    if d < 1 or m < 2:
        raise ConfigError(f"need d >= 1 and m >= 2, got d={d} m={m}")
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    stream = LcgStream(rng_state)
    examples = []
    for c in range(m):
        center = [separation if j == c % d else 0.0 for j in range(d)]
        for _ in range(n_per_class):
            coords = stream.next_gauss_values(d)
            x = tuple(center[j] + coords[j] for j in range(d))
            examples.append((x, c))
    return LabeledDataset(examples=tuple(examples), d=d, m=m)


def load_grouping(path: str) -> FeatureGrouping:
    """Read a grouping document: {"d": int, "groups": [[indices], ...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read grouping file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"grouping file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"grouping file {path} must hold a JSON object")
    return FeatureGrouping.from_json_dict(doc)
