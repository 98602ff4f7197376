"""Dataset loading, synthetic blob generation, and grouping files."""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

from .core import ConfigError, DataError, FeatureGrouping, Vector, _int_arg
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
            if isinstance(y, bool) or not isinstance(y, numbers.Integral):
                raise DataError(f"example {i} label {y!r} is not an integer")
            if not 0 <= y < self.m:
                raise DataError(f"example {i} label {y} outside [0, {self.m})")

    def __len__(self) -> int:
        return len(self.examples)


def _is_numeric(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_text(path: str, what: str) -> str:
    """The text of an input file, decoded as UTF-8 with universal newlines.
    A file that cannot be opened or decoded raises DataError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object an input file holds; anything else raises DataError."""
    try:
        doc = json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{what} file {path} must hold a JSON object")
    return doc


def load_csv_dataset(path: str, label_col: int | None = None) -> LabeledDataset:
    """Parse comma-separated rows of decimals; one column holds the label.

    The label column defaults to the last one. A first row whose fields
    are all non-numeric is treated as a header and skipped. Features must be
    finite: nan and inf parse as floats but cannot be masked or certified.
    The first bad row raises its DataError.
    """
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
    col = width - 1 if label_col is None else label_col
    if not 0 <= col < width:
        raise ConfigError(f"label column {col} outside 0..{width - 1}")
    examples = []
    for rownum, fields in rows:
        if len(fields) != width:
            raise DataError(f"{path} row {rownum}: {len(fields)} fields, expected {width}")
        try:
            x = tuple(map(float, fields[:col] + fields[col + 1:]))
        except ValueError as exc:
            raise DataError(f"{path} row {rownum}: non-numeric feature: {exc}") from exc
        if not all(map(math.isfinite, x)):
            bad = next(v for v in x if not math.isfinite(v))
            raise DataError(f"{path} row {rownum}: feature {bad!r} is not finite")
        try:
            y = int(fields[col])
        except ValueError as exc:
            raise DataError(
                f"{path} row {rownum}: label {fields[col].strip()!r} is not an integer"
            ) from exc
        if y < 0:
            raise DataError(f"{path} row {rownum}: negative label {y}")
        examples.append((x, y))
    return LabeledDataset(examples=tuple(examples), d=width - 1,
                          m=max(2, max(y for _, y in examples) + 1))


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
    d, m = _int_arg("d", d, 1), _int_arg("m", m, 2)
    n_per_class = _int_arg("n_per_class", n_per_class, 1)
    stream = LcgStream(_int_arg("rng_state", rng_state))
    examples = []
    for c in range(m):
        center = [separation if j == c % d else 0.0 for j in range(d)]
        for _ in range(n_per_class):
            coords = stream.next_gauss_values(d)
            x = tuple(center[j] + coords[j] for j in range(d))
            examples.append((x, c))
    return LabeledDataset(examples=tuple(examples), d=d, m=m)


def load_grouping(path: str) -> FeatureGrouping:
    """Read a grouping document: {"d": int, "groups": [[indices], ...]}.
    Whatever the grouping rule refuses is a DataError naming the file."""
    doc = _read_json_object(path, "grouping")
    try:
        return FeatureGrouping.from_json_dict(doc)
    except DataError as exc:
        raise DataError(f"grouping file {path}: {exc}") from exc
