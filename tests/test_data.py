"""CSV parsing, synthetic clusters, grouping files."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muscert.cli import EXIT_DATA, main
from muscert.core import ConfigError, DataError, _int_arg, _real_row
from muscert.data import (
    LabeledDataset,
    load_csv_dataset,
    load_grouping,
    save_csv_dataset,
    synth_blobs,
)
from muscert.models import fit_logistic, load_model
from muscert.noise import derive_rng_state

from reference import load_csv_rows


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


@pytest.mark.parametrize("field,shown", [
    ("nan", "nan"), ("inf", "inf"), ("-Infinity", "-inf"), ("1e999", "inf"),
])
def test_non_finite_feature_rejected(tmp_path, field, shown):
    path = _write(tmp_path, "n.csv", f"1.0,2.0,0\n3.0,{field},1\n")
    message = f"dataset file {path}: example 1 entry 1 must be finite, got {shown}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_csv_dataset(path)


def test_negative_label_rejected(tmp_path):
    path = _write(tmp_path, "f.csv", "1.0,2.0,-1\n")
    message = f"dataset file {path}: example 0 label must be in [0, 1], got -1"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_csv_dataset(path)


# A row that does not parse is named by its file row; one that the dataset
# rule refuses, by its example index (the header is not an example).
@pytest.mark.parametrize("last_row,error", [
    pytest.param("3.0,nan,1", "dataset file {path}: example 40 entry 1 must be finite, got nan",
                 id="3.0,nan,1-feature nan is not finite"),
    ("3.0,1", "2 fields, expected 3"),
    ("3.0,abc,1", "non-numeric feature: could not convert string to float: 'abc'"),
    ("3.0,4.0,1.5", "label '1.5' is not an integer"),
    pytest.param("3.0,4.0,-2", "dataset file {path}: example 40 label must be in [0, 2], got -2",
                 id="3.0,4.0,-2-negative label -2"),
])
def test_bad_last_row_gives_its_row_error(small_artifacts, tmp_path, capsys, last_row, error):
    """A bad row, here the last of many good ones, gets its own message and
    exit code, as the first bad row of the file."""
    lines = [f"{i}.5,-{i}.25,{i % 3}" for i in range(40)] + [last_row]
    path = _write(tmp_path, "last.csv", "f0,f1,label\n" + "\n".join(lines) + "\n")
    message = error.format(path=path) if "{path}" in error else f"{path} row 42: {error}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_csv_dataset(path)
    code = main(["accuracy-curve", "--model", small_artifacts["model_path"], "--data", path,
                 "--out", str(tmp_path / "curve.txt"), "--q", "8", "--lambda-num", "2"])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


LONG_FIELD_SHOWN = "'" + "x" * 76 + "..."


@pytest.mark.parametrize("row,error", [
    ("1.0,{long},0", f"non-numeric feature: could not convert string to float: {LONG_FIELD_SHOWN}"),
    ("1.0,2.0,{long}", f"label {LONG_FIELD_SHOWN} is not an integer"),
])
def test_parse_errors_show_a_bounded_field(tmp_path, row, error):
    """A 100,000-character field is shown cut to 80 characters, so the
    message past the file name stays under 200."""
    path = _write(tmp_path, "long.csv", row.format(long="x" * 100000) + "\n")
    with pytest.raises(DataError) as err:
        load_csv_dataset(path)
    assert str(err.value) == f"{path} row 1: {error}"
    assert len(str(err.value)) - len(path) < 200


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read dataset file"):
        load_csv_dataset(str(tmp_path / "nope.csv"))


def test_crlf_rows_load_as_their_lf_twin(tmp_path):
    text = "f0,f1,label\n1.5,-2.0,0\n\n3.0,4.25,2\n"
    lf = load_csv_dataset(_write(tmp_path, "lf.csv", text))
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert load_csv_dataset(str(crlf)) == lf
    bad = tmp_path / "bad_crlf.csv"
    bad.write_bytes(b"1.0,2.0,0\r\n3.0,1\r\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(bad))} row 2: 2 fields, expected 3$"):
        load_csv_dataset(str(bad))


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
    with pytest.raises(ConfigError, match="^d must be >= 1, got 0$"):
        synth_blobs(3, 0, 2, 1.0, 0)
    with pytest.raises(ConfigError, match="^m must be >= 2, got 1$"):
        synth_blobs(3, 2, 1, 1.0, 0)


def test_dataset_validation():
    with pytest.raises(ConfigError, match="^dataset has no examples$"):
        LabeledDataset(examples=(), d=1, m=2)
    with pytest.raises(ConfigError, match="^example 1 holds 2 numbers, expected 1$"):
        LabeledDataset(examples=(((1.0,), 0), ((1.0, 2.0), 1)), d=1, m=2)
    with pytest.raises(ConfigError, match=r"^example 0 label must be in \[0, 1\], got 5$"):
        LabeledDataset(examples=(((1.0,), 5),), d=1, m=2)


@pytest.mark.parametrize("label", [0.5, 1.9, 1.0, True, np.bool_(False), "1", None])
def test_dataset_labels_must_be_integers(label):
    with pytest.raises(ConfigError, match=f"^example 1 label must be an integer, "
                                          f"got {re.escape(repr(label))}$"):
        LabeledDataset(examples=(((1.0,), 0), ((2.0,), label)), d=1, m=2)


def test_dataset_takes_numpy_integer_labels():
    ds = LabeledDataset(examples=(((1.0,), np.int64(0)), ((2.0,), np.uint8(1))), d=1, m=2)
    assert [y for _, y in ds.examples] == [0, 1]


@pytest.mark.parametrize("examples,message", [
    ((("a", "b"), 0), "example 0 entry 0 must be a number, got 'a'"),
    (((1.0, float("nan")), 1), "example 0 entry 1 must be finite, got nan"),
    (((1.0, True), 1), "example 0 entry 1 must be a number, got True"),
    ((None, 1), "example 0 must be a list of numbers, got None"),
    (((1.0, 2.0),), 'field "examples" must hold (features, label) pairs'),
    (None, 'field "examples" must hold (features, label) pairs'),
], ids=["strings", "nan", "bool", "no-row", "no-label", "no-examples"])
def test_dataset_rule_refuses_what_is_not_a_real_row(examples, message):
    with pytest.raises(ConfigError) as err:
        LabeledDataset(examples=None if examples is None else (examples,), d=2, m=2)
    assert str(err.value) == message


def _per_row_rule(examples, d, m):
    """The dataset rule one example at a time, as LabeledDataset applied it
    before it checked every row at once: the examples it keeps, or its
    ConfigError."""
    try:
        kept = tuple((_real_row(f"example {i}", x, d), _int_arg(f"example {i} label", y, 0, m - 1))
                     for i, (x, y) in enumerate(examples))
    except (TypeError, ValueError):
        raise ConfigError('field "examples" must hold (features, label) pairs') from None
    if not kept:
        raise ConfigError("dataset has no examples")
    return kept


def _rule_outcome(rule, examples):
    """What a rule makes of examples: its repr and the type of every number
    kept, or its error's message."""
    try:
        kept = rule(examples)
    except ConfigError as exc:
        return "error", str(exc)
    return repr(kept), [type(v) for x, y in kept for v in (*x, y)]


_GOOD_ROWS = [((0.5 * i - 1.0, -0.0, 1e-300 * i), i % 3) for i in range(7)]
_BAD_ENTRIES = {
    "bool feature": ((True, 0.0, 1.0), 1), "numpy float": ((np.float64(0.5), 0.0, 1.0), 1),
    "float32": ((np.float32(0.5), 0.0, 1.0), 1), "int feature": ((1, 0.0, 1.0), 1),
    "nan": ((0.0, float("nan"), 1.0), 1), "inf": ((float("inf"), 0.0, 1.0), 1),
    "-inf": ((0.0, 1.0, float("-inf")), 1), "short row": ((0.0, 1.0), 1),
    "long row": ((0.0, 1.0, 2.0, 3.0), 1), "string row": ("abc", 1), "no row": (None, 1),
    "list row": ([0.0, 1.0, 2.0], 2), "array row": (np.array([0.0, 1.0, 2.0]), 2),
    "label -1": ((0.0, 1.0, 2.0), -1), "label m": ((0.0, 1.0, 2.0), 3),
    "bool label": ((0.0, 1.0, 2.0), True), "numpy label": ((0.0, 1.0, 2.0), np.int64(2)),
    "float label": ((0.0, 1.0, 2.0), 1.0), "no label": ((0.0, 1.0, 2.0),),
    "triple": ((0.0, 1.0, 2.0), 1, 0), "list pair": [(0.0, 1.0, 2.0), 1],
    "sum overflows": ((1e308, 1e308, 1e308), 0),
}


@pytest.mark.parametrize("at", [0, 3, 6], ids=["first", "middle", "last"])
@pytest.mark.parametrize("kind", sorted(_BAD_ENTRIES))
def test_whole_dataset_check_equals_the_per_row_rule(kind, at):
    """The rule over all rows at once keeps what the per-row rule keeps, to
    the type of every number, and refuses with its message; a second bad
    row later on is never the one named."""
    examples = list(_GOOD_ROWS)
    examples[at] = _BAD_ENTRIES[kind]
    if at < 6:
        examples[6] = _BAD_ENTRIES["nan"]
    for batch in (tuple(examples), examples, iter(examples)):
        got = _rule_outcome(lambda ex: LabeledDataset(examples=ex, d=3, m=3).examples, batch)
        assert got == _rule_outcome(lambda ex: _per_row_rule(ex, 3, 3), examples)


def test_whole_dataset_check_keeps_a_good_dataset_as_the_per_row_rule_does():
    for examples in (_GOOD_ROWS, [list(pair) for pair in _GOOD_ROWS],
                     [(list(x), y) for x, y in _GOOD_ROWS], (), [((1.0, 2.0, 3.0), 0)]):
        got = _rule_outcome(lambda ex: LabeledDataset(examples=ex, d=3, m=3).examples, examples)
        assert got == _rule_outcome(lambda ex: _per_row_rule(ex, 3, 3), examples)


@pytest.mark.parametrize("d,m,message", [
    (2, 1, 'field "m" must be >= 2, got 1'),
    (2, True, 'field "m" must be an integer, got True'),
    (2, 2.0, 'field "m" must be an integer, got 2.0'),
    (0, 2, 'field "d" must be >= 1, got 0'),
    ("2", 2, "field \"d\" must be an integer, got '2'"),
])
def test_dataset_rule_checks_its_sizes(d, m, message):
    with pytest.raises(ConfigError) as err:
        LabeledDataset(examples=(((1.0, 2.0), 0),), d=d, m=m)
    assert str(err.value) == message


def test_fit_logistic_refuses_a_dataset_the_rule_refuses():
    """A NaN feature once gave the initial weights and a loss of nan."""
    class Duck:
        examples, d, m = (((1.0, float("nan")), 0), ((0.0, 1.0), 1)), 2, 2

    with pytest.raises(ConfigError, match="^example 0 entry 1 must be finite, got nan$"):
        fit_logistic(Duck())


def test_dataset_stores_python_floats_and_ints(tmp_path):
    """Numpy features and labels are stored as the Python numbers they
    equal, so the dataset equals its Python twin and its CSV reads back."""
    rows = np.array([[1.5, -0.0], [2.0, 1e-320]])
    ds = LabeledDataset(examples=((rows[0], np.int64(0)), (rows[1].astype(np.float32), 2)),
                        d=np.uint8(2), m=np.int64(3))
    twin = LabeledDataset(examples=(((1.5, -0.0), 0), ((2.0, 0.0), 2)), d=2, m=3)
    assert ds == twin and hash(ds.examples) == hash(twin.examples)
    assert all(type(v) is float for x, _ in ds.examples for v in x)
    assert {type(y) for _, y in ds.examples} | {type(ds.d), type(ds.m)} == {int}
    path = str(tmp_path / "numpy.csv")
    save_csv_dataset(ds, path)
    assert load_csv_dataset(path) == ds


_FEATURE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.integers(-2 ** 60, 2 ** 60), st.integers(-100, 100).map(np.int64))


@st.composite
def _datasets(draw):
    """A dataset the rule accepts whose m is the one its labels give, the
    m a CSV file, which holds no m, is read back with."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_FEATURE, min_size=d, max_size=d), min_size=1, max_size=6))
    labels = draw(st.lists(st.integers(0, 4).map(draw(st.sampled_from([int, np.int64]))),
                           min_size=len(rows), max_size=len(rows)))
    return LabeledDataset(examples=tuple(zip(rows, labels)), d=d, m=max(2, max(labels) + 1))


@given(dataset=_datasets())
@settings(max_examples=100, deadline=None)
def test_every_accepted_dataset_round_trips_through_csv(tmp_path_factory, dataset):
    path = str(tmp_path_factory.mktemp("round") / "d.csv")
    save_csv_dataset(dataset, path)
    assert load_csv_dataset(path) == dataset


def test_single_class_file_widens_m_to_two(tmp_path):
    ds = load_csv_dataset(_write(tmp_path, "one.csv", "1.0,0\n2.0,0\n"))
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
    with pytest.raises(DataError, match=f"^grouping file {re.escape(overlapping)}: "
                                        "raw index 1 appears in more than one group$"):
        load_grouping(overlapping)


# Each JSON input file: its loader and the name its errors give it.
JSON_LOADERS = {"model": load_model, "grouping": load_grouping}


@pytest.mark.parametrize("what", JSON_LOADERS)
@pytest.mark.parametrize("content,error", [
    (None, "cannot read {what} file {path}: "),
    ("{not json", "{what} file {path} is not valid JSON: "),
    ("[1, 2]", "{what} file {path} must hold a JSON object"),
])
def test_json_reader_errors(tmp_path, what, content, error):
    path = str(tmp_path / f"{what}.json")
    if content is not None:
        _write(tmp_path, f"{what}.json", content)
    with pytest.raises(DataError) as err:
        JSON_LOADERS[what](path)
    assert str(err.value).startswith(error.format(what=what, path=path))


@pytest.mark.parametrize("what", JSON_LOADERS)
def test_json_int_past_the_digit_limit_is_data_error(tmp_path, what):
    """Python refuses to parse an int of more than 4300 digits; the reader
    names the file rather than let the ValueError escape."""
    path = _write(tmp_path, f"{what}.json", '{"d": ' + "1" * 5000 + "}")
    with pytest.raises(DataError) as err:
        JSON_LOADERS[what](path)
    assert str(err.value).startswith(f"{what} file {path} is not valid JSON: Exceeds the limit")


@pytest.mark.parametrize("what,flag", [
    ("dataset", "--data"), ("model", "--model"), ("grouping", "--grouping"),
])
def test_undecodable_file_is_data_error(small_artifacts, tmp_path, capsys, what, flag):
    """A file that is not UTF-8 raises DataError naming its kind, and the CLI
    prints one error line and exits 2."""
    bad = tmp_path / f"{what}.bin"
    bad.write_bytes(b"\xff\xfe1\x00,\x002\x00\n\x00")
    message = (f"cannot read {what} file {bad}: 'utf-8' codec can't decode byte 0xff "
               "in position 0: invalid start byte")
    loader = {"dataset": load_csv_dataset, **JSON_LOADERS}[what]
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        loader(str(bad))
    # The last --model or --data given wins.
    code = main(["certify", "--model", small_artifacts["model_path"],
                 "--data", small_artifacts["data_path"], flag, str(bad),
                 "--out", str(tmp_path / "o"), "--q", "8", "--lambda-num", "2", "--topk", "2"])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


def _outcome(loader, path):
    """The dataset a loader returns, or the class and message of its error."""
    try:
        return loader(path)
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)


CSV_GOOD_ROWS = ["0.5,1.5,0", "-2.0,3.25,1", "1e3,-0.0,2", "4.0,5.0,1", "6.5,-7.5,0"]
CSV_BAD_ROWS = {
    "ragged long": "1.0,2.0,3.0,1", "ragged short": "1.0,0", "non-numeric": "1.0,abc,0",
    "empty feature": "1.0,,0", "nan": "nan,1.0,0", "inf": "1.0,inf,1", "-inf": "-inf,1.0,1",
    "fractional label": "1.0,2.0,1.5", "word label": "1.0,2.0,x", "empty label": "1.0,2.0,",
    "negative label": "1.0,2.0,-1",
}
CSV_FILES = {
    "header": "f0,f1,label\n" + "\n".join(CSV_GOOD_ROWS) + "\n",
    "blank lines": "\n" + "\n\n  \n".join(CSV_GOOD_ROWS) + "\n\n\t\n",
    "crlf": "\r\n".join(CSV_GOOD_ROWS) + "\r\n",
    "spaces": " 0.5 , 1.5 ,0\n-2.0,3.25, 1\n 1e3,-0.0 , 2\n",
    "label written ' 2'": "1e3,-0.0, 2\n-0.0,1E-3,1\n",
    "no final newline": "\n".join(CSV_GOOD_ROWS),
    "one row": "1.0,2.0,3\n",
    "empty": "", "only blank lines": "\n \n\n", "header only": "a,b,c\n",
    "header then blanks": "a,b,c\n\n\n", "one column": "1\n2\n", "header then one column": "x\n1\n",
    **{f"{kind} at row {at + 1}": "\n".join(CSV_GOOD_ROWS[:at] + [bad] + CSV_GOOD_ROWS[at + 1:])
       for kind, bad in CSV_BAD_ROWS.items() for at in (0, 2, 4)},
    **{f"{first} then {second}": "\n".join(
        [CSV_GOOD_ROWS[0], CSV_BAD_ROWS[first], CSV_GOOD_ROWS[2], CSV_BAD_ROWS[second]])
       for first in CSV_BAD_ROWS for second in ("ragged long", "non-numeric", "word label", "nan")},
}


@pytest.mark.parametrize("name", sorted(CSV_FILES))
def test_one_pass_csv_parse_equals_the_per_row_loader(tmp_path, name):
    """The one-pass loader returns the per-row loader's dataset, floats bit for
    bit, or raises its error class with its message: the first bad row in
    row order is the one named."""
    path = tmp_path / "data.csv"
    path.write_bytes(CSV_FILES[name].encode())
    got, want = _outcome(load_csv_dataset, str(path)), _outcome(load_csv_rows, str(path))
    assert got == want
    assert repr(got) == repr(want)
