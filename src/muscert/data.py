"""Dataset loading, synthetic blob generation, and grouping files."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, repeat

from .core import (ConfigError, DataError, FeatureGrouping, Vector, _int_arg, _real_arg, _real_row,
                   _shown)
from .noise import LcgStream


@dataclass(frozen=True)
class LabeledDataset:
    """Fixed-width feature vectors with integer class labels.

    The one dataset rule: d >= 1, m >= 2 and at least one example, each d
    numbers by the real-number rule and a label in [0, m) by the integer
    rule; else ConfigError. Kept as Python floats and ints in tuples."""

    examples: tuple[tuple[Vector, int], ...]
    d: int
    m: int

    def __post_init__(self) -> None:
        d, m = _int_arg('field "d"', self.d, 1), _int_arg('field "m"', self.m, 2)
        try:  # the two rules raise nothing but ConfigError
            examples = _plain_examples(pairs := tuple(self.examples), d, m) or tuple(
                (_real_row(f"example {i}", x, d), _int_arg(f"example {i} label", y, 0, m - 1))
                for i, (x, y) in enumerate(pairs))
        except (TypeError, ValueError):
            raise ConfigError('field "examples" must hold (features, label) pairs') from None
        if not examples:
            raise ConfigError("dataset has no examples")
        for name, value in (("examples", examples), ("d", d), ("m", m)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.examples)


def _plain_examples(pairs: tuple, d: int, m: int) -> tuple | None:
    """pairs as the dataset rule keeps them when all rows are d finite Python floats (a finite
    sum has no NaN or inf) and all labels Python ints in [0, m); else None (go row by row)."""
    try:
        rows, labels = zip(*pairs) if set(map(len, pairs)) == {2} else ((), ())
        plain = (set(map(len, rows)) == {d} and set(map(type, labels)) == {int}
                 and set(map(type, chain.from_iterable(rows))) == {float}
                 and math.isfinite(sum(chain.from_iterable(rows)))
                 and 0 <= min(labels) and max(labels) < m)
    except TypeError:
        return None
    return tuple(zip(map(tuple, rows), labels)) if plain else None


def _is_numeric(field: str, parse=float) -> bool:
    try:
        parse(field)
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
    except ValueError as exc:  # also an int past Python's digit limit
        raise DataError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{what} file {path} must hold a JSON object")
    return doc


def load_csv_dataset(path: str) -> LabeledDataset:
    """Parse comma-separated rows of decimals; the last column holds the label.

    A first row whose fields are all non-numeric is treated as a header and
    skipped. The rows are parsed in one pass, int over the label column and
    float over every feature field; only when that fails are they scanned
    one at a time, and the first row that does not parse raises its
    DataError, which shows at most 80 characters of the field. What the
    dataset rule refuses, with m = max(2, top label + 1), is a DataError
    naming the file.
    """
    lines = _read_text(path, "dataset").split("\n")
    kept = [i for i, ln in enumerate(lines) if ln.strip()]
    if not kept:
        raise DataError(f"dataset file {path} has no rows")
    if not any(_is_numeric(f) for f in lines[kept[0]].split(",")):
        kept = kept[1:]
        if not kept:
            raise DataError(f"dataset file {path} has a header but no data rows")
    rows = [lines[i] for i in kept]
    width = rows[0].count(",") + 1
    if width < 2:
        raise DataError(f"{path} row {kept[0] + 1}: need at least 2 columns, got {width}")
    try:
        if set(map(str.count, rows, repeat(","))) != {width - 1}:
            raise ValueError("ragged rows")
        fields = ",".join(rows).split(",")
        labels = list(map(int, fields[width - 1::width]))
        del fields[width - 1::width]
        values = list(map(float, fields))
    except ValueError:
        for i, row in zip(kept, rows):
            if len(fields := row.split(",")) != width:
                raise DataError(f"{path} row {i + 1}: {len(fields)} fields, "
                                f"expected {width}") from None
            if bad := [f for f in fields[:-1] if not _is_numeric(f)]:
                raise DataError(f"{path} row {i + 1}: non-numeric feature: could not convert "
                                f"string to float: {_shown(bad[0])}") from None
            if not _is_numeric(fields[-1], int):
                raise DataError(f"{path} row {i + 1}: label {_shown(fields[-1].strip())} "
                                "is not an integer") from None
        raise
    try:
        return LabeledDataset(examples=tuple(zip(zip(*[iter(values)] * (width - 1)), labels)),
                              d=width - 1, m=max(2, max(labels) + 1))
    except ConfigError as exc:
        raise DataError(f"dataset file {path}: {exc}") from exc


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
    separation = _real_arg("separation", separation)
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
    """Read a grouping document: {"d": int, "groups": [[indices], ...]}.
    Whatever the grouping rule refuses is a DataError naming the file."""
    doc = _read_json_object(path, "grouping")
    try:
        return FeatureGrouping.from_json_dict(doc)
    except DataError as exc:
        raise DataError(f"grouping file {path}: {exc}") from exc
