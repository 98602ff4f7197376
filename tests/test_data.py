"""CSV parsing, synthetic clusters, grouping files."""
from __future__ import annotations

import json

import pytest

from muscert.core import ConfigError, DataError
from muscert.data import (
    LabeledDataset,
    load_csv_dataset,
    load_grouping,
    save_csv_dataset,
    synth_blobs,
)
from muscert.models import fit_logistic
from muscert.noise import derive_rng_state


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_plain_rows_parse(tmp_path):
    path = _write(tmp_path, "a.csv", "1.0,2.0,0\n3.0,4.0,1\n")
    ds = load_csv_dataset(path)
    assert ds.d == 2 and ds.m == 2 and len(ds) == 2
    assert ds.examples[0] == ((1.0, 2.0), 0)
    assert ds.examples[1] == ((3.0, 4.0), 1)


def test_header_row_is_skipped(tmp_path):
    path = _write(tmp_path, "b.csv", "f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n")
    ds = load_csv_dataset(path)
    assert len(ds) == 2
    assert ds.examples[0] == ((1.0, 2.0), 0)


def test_first_row_with_a_numeric_field_is_data(tmp_path):
    path = _write(tmp_path, "b2.csv", "1.0,2.0,x\n3.0,4.0,1\n5.0,6.0,0\n")
    with pytest.raises(DataError, match="row 1: label 'x' is not an integer"):
        load_csv_dataset(path)


def test_single_row_with_bad_label_names_the_label(tmp_path):
    path = _write(tmp_path, "b3.csv", "1,2,x\n")
    with pytest.raises(DataError, match="row 1: label 'x' is not an integer"):
        load_csv_dataset(path)


def test_blank_lines_are_ignored(tmp_path):
    path = _write(tmp_path, "c.csv", "\n1.0,2.0,0\n\n3.0,4.0,1\n\n")
    assert len(load_csv_dataset(path)) == 2


def test_ragged_row_names_its_line(tmp_path):
    path = _write(tmp_path, "d.csv", "1.0,2.0,0\n3.0,1\n")
    with pytest.raises(DataError, match="row 2: 2 fields, expected 3") as err:
        load_csv_dataset(path)
    assert "row 2" in str(err.value)


def test_non_integer_label_rejected(tmp_path):
    path = _write(tmp_path, "e.csv", "1.0,2.0,0\n3.0,4.0,1.5\n")
    with pytest.raises(DataError, match="row 2: label '1.5' is not an integer") as err:
        load_csv_dataset(path)
    assert "row 2" in str(err.value)


def test_negative_label_rejected(tmp_path):
    path = _write(tmp_path, "f.csv", "1.0,2.0,-1\n")
    with pytest.raises(DataError, match="row 1: negative label -1"):
        load_csv_dataset(path)


def test_label_col_override(tmp_path):
    path = _write(tmp_path, "g.csv", "1,5.0,6.0\n0,7.0,8.0\n")
    ds = load_csv_dataset(path, label_col=0)
    assert ds.examples[0] == ((5.0, 6.0), 1)
    assert ds.examples[1] == ((7.0, 8.0), 0)


def test_label_col_out_of_range(tmp_path):
    path = _write(tmp_path, "h.csv", "1.0,0\n")
    with pytest.raises(ConfigError, match=r"label column 5 outside 0\.\.1"):
        load_csv_dataset(path, label_col=5)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read dataset file"):
        load_csv_dataset(str(tmp_path / "nope.csv"))


def test_round_trip_preserves_floats_exactly(tmp_path):
    ds = synth_blobs(4, 3, 2, 2.5, derive_rng_state(5, 0))
    path = str(tmp_path / "rt.csv")
    save_csv_dataset(ds, path)
    back = load_csv_dataset(path)
    assert back == ds


def test_synth_blobs_deterministic():
    a = synth_blobs(6, 4, 3, 4.0, 123)
    b = synth_blobs(6, 4, 3, 4.0, 123)
    c = synth_blobs(6, 4, 3, 4.0, 124)
    assert a == b
    assert a != c


def test_synth_blobs_class_major_layout():
    ds = synth_blobs(3, 2, 3, 4.0, 9)
    assert [y for _, y in ds.examples] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert ds.d == 2 and ds.m == 3


def test_synth_blobs_centers_are_resolvable():
    """Widely separated clusters should be nearly perfectly fittable."""
    ds = synth_blobs(40, 2, 2, 10.0, derive_rng_state(8, 0))
    model = fit_logistic(ds, epochs=300, learning_rate=0.2, rng_state=0)
    hits = sum(
        max(range(2), key=lambda c: model.evaluate(x)[c]) == y
        for x, y in ds.examples
    )
    assert hits / len(ds) >= 0.99


def test_synth_blobs_center_wraps_past_d():
    # With m > d the class centers reuse axes modulo d.
    ds = synth_blobs(50, 2, 3, 100.0, 77)
    by_class = {c: [x for x, y in ds.examples if y == c] for c in range(3)}
    mean0 = sum(x[0] for x in by_class[2]) / 50
    assert mean0 > 50.0  # class 2 sits on axis 0 again


def test_synth_blobs_config_errors():
    with pytest.raises(ConfigError, match="n_per_class must be >= 1, got 0"):
        synth_blobs(0, 2, 2, 1.0, 0)
    with pytest.raises(ConfigError, match="need d >= 1 and m >= 2, got d=0 m=2"):
        synth_blobs(3, 0, 2, 1.0, 0)
    with pytest.raises(ConfigError, match="need d >= 1 and m >= 2, got d=2 m=1"):
        synth_blobs(3, 2, 1, 1.0, 0)


def test_dataset_validation():
    with pytest.raises(DataError, match="dataset has no examples"):
        LabeledDataset(examples=(), d=1, m=2)
    with pytest.raises(DataError, match="example 1 has 2 features, expected 1"):
        LabeledDataset(examples=(((1.0,), 0), ((1.0, 2.0), 1)), d=1, m=2)
    with pytest.raises(DataError, match=r"example 0 label 5 outside \[0, 2\)"):
        LabeledDataset(examples=(((1.0,), 5),), d=1, m=2)


def test_from_examples_widens_m_to_two():
    ds = LabeledDataset.from_examples([((1.0,), 0), ((2.0,), 0)])
    assert ds.m == 2


def test_load_grouping_round_trip(tmp_path):
    doc = {"d": 5, "groups": [[0, 1], [2], [3, 4]]}
    path = _write(tmp_path, "groups.json", json.dumps(doc))
    grouping = load_grouping(path)
    assert grouping.d == 5
    assert grouping.groups == ((0, 1), (2,), (3, 4))
    assert grouping.to_json_dict() == doc


def test_load_grouping_errors(tmp_path):
    with pytest.raises(DataError, match="cannot read grouping file"):
        load_grouping(str(tmp_path / "absent.json"))
    bad = _write(tmp_path, "bad.json", "[1, 2]")
    with pytest.raises(DataError, match="must hold a JSON object"):
        load_grouping(bad)
    overlapping = _write(
        tmp_path, "overlap.json", json.dumps({"d": 3, "groups": [[0, 1], [1, 2]]})
    )
    with pytest.raises(DataError, match="raw index 1 appears in more than one group"):
        load_grouping(overlapping)
