"""Command-line behavior: exit codes, file formats, determinism."""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muscert
from muscert import attribution, certify, cli
from muscert.attack import AttackResult
from muscert.attribution import MAX_EXAMPLE_ROWS, occlusion_scores, topk_binarize
from muscert.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    SCORERS,
    main,
)
from muscert.core import (
    ConfigError,
    DataError,
    FeatureGrouping,
    MuscertError,
    VerificationError,
    ones_mask,
    top_classes_and_gaps,
)
from muscert.models import load_model, random_linear, save_model
from muscert.noise import LcgStream, SmoothingConfig, derive_rng_state
from muscert.selfcheck import MAX_TRIALS, SelfcheckReport, SuiteResult
from muscert.smoothing import SmoothedModel, mus_evaluate_pairs

from conftest import definitional_certificate
from reference import mus_evaluate, top_class_and_gap


def _base_args(small_artifacts, out, extra=()):
    return [
        "--model", small_artifacts["model_path"],
        "--data", small_artifacts["data_path"],
        "--out", str(out),
        "--q", "8", "--lambda-num", "2",
        *extra,
    ]


def _read_records(path):
    rows = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert rows, f"{path} is empty"
    return rows


def _compact_records(path):
    """_read_records, after checking that each line is the compact json.dumps
    of what it reads back as: the bytes the row templates must write."""
    lines = open(path, encoding="utf-8").read().splitlines()
    for line in lines:
        assert json.dumps(json.loads(line), separators=(",", ":")) == line
    return _read_records(path)


def _read_curves(path):
    curves = {"inc": {}, "dec": {}}
    for line in open(path, encoding="utf-8"):
        mode, r, value = line.split()
        curves[mode][int(r)] = float(value)
    return curves


# ----------------------------------------------------------------- failures

def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(small_artifacts, tmp_path):
    argv = ["certify", *_base_args(small_artifacts, tmp_path / "o"),
            "--topk", "2", "--frob", "1"]
    assert main(argv) == EXIT_USAGE


def test_missing_model_file_is_data_error(small_artifacts, tmp_path, capsys):
    argv = ["certify",
            "--model", str(tmp_path / "no-such-model.json"),
            "--data", small_artifacts["data_path"],
            "--out", str(tmp_path / "o"),
            "--q", "8", "--lambda-num", "2", "--topk", "2"]
    assert main(argv) == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_malformed_model_is_data_error(small_artifacts, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    argv = ["certify", "--model", str(bad),
            "--data", small_artifacts["data_path"],
            "--out", str(tmp_path / "o"),
            "--q", "8", "--lambda-num", "2", "--topk", "2"]
    assert main(argv) == EXIT_DATA


def test_model_weight_too_large_for_a_float_is_data_error(small_artifacts, tmp_path, capsys):
    doc = json.loads(Path(small_artifacts["model_path"]).read_text())
    doc["bias"][0] = 10 ** 400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    argv = ["accuracy-curve", *_base_args(small_artifacts, tmp_path / "o")]
    argv[argv.index("--model") + 1] = str(bad)
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        f'error: model file {bad}: field "bias" entry 0 is too large for a float\n')


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_one_class_model_file_is_data_error(tmp_path, small_artifacts, capsys, kind):
    """A model file the model classes refuse, here one with m = 1, exits 2
    with one error line, as a file that breaks the schema does."""
    doc = ({"kind": "linear", "d": 6, "m": 1, "weights": [[1.0] * 6], "bias": [0.0]}
           if kind == "linear" else
           {"kind": "mlp", "d": 6, "m": 1, "h": 1, "weights": [[[1.0] * 6], [[1.0]]],
            "bias": [[0.0], [0.0]]})
    bad = tmp_path / "one-class.json"
    bad.write_text(json.dumps(doc))
    argv = ["accuracy-curve", *_base_args(small_artifacts, tmp_path / "o")]
    argv[argv.index("--model") + 1] = str(bad)
    assert main(argv) == EXIT_DATA
    field = "weights" if kind == "linear" else "w2"
    assert capsys.readouterr().err == (
        f'error: model file {bad}: field "{field}" must hold at least 2 rows, got 1\n')


def test_off_grid_keep_rate_is_usage_error(small_artifacts, tmp_path, capsys):
    argv = ["certify", *_base_args(small_artifacts, tmp_path / "o")]
    argv[argv.index("--lambda-num") + 1] = "9"
    argv += ["--topk", "2"]
    assert main(argv) == EXIT_USAGE
    assert "lambda_num" in capsys.readouterr().err


def test_phi_source_must_be_exactly_one(small_artifacts, tmp_path):
    both = ["certify", *_base_args(small_artifacts, tmp_path / "o"),
            "--topk", "2", "--rinc", "1"]
    neither = ["certify", *_base_args(small_artifacts, tmp_path / "o")]
    assert main(both) == EXIT_USAGE
    assert main(neither) == EXIT_USAGE


def test_unwritable_out_path_is_data_error(small_artifacts, tmp_path):
    argv = ["certify",
            *_base_args(small_artifacts, tmp_path / "absent-dir" / "o"),
            "--topk", "2"]
    assert main(argv) == EXIT_DATA


@pytest.mark.parametrize("width", ["0", "nan", "1e-170"])
def test_nonpositive_lime_kernel_width_is_usage_error(small_artifacts, tmp_path, capsys, width):
    """So is a positive width whose square underflows to 0.0, and NaN."""
    argv = ["explain", *_base_args(small_artifacts, tmp_path / "o"),
            "--scorer", "lime", "--lime-kernel-width", width, "--rinc", "0", "--rdec", "0"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: kernel width must be finite, got nan\n" if width == "nan" else
        f"error: kernel width must be positive with a nonzero square, got {float(width)}\n")


@pytest.mark.parametrize("q", [2 ** 40, 2 ** 63])
def test_q_above_its_cap_is_usage_error(small_artifacts, tmp_path, capsys, q):
    argv = ["certify", *_base_args(small_artifacts, tmp_path / "o"), "--topk", "2", "--q", str(q)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: q must be in [2, 65536], got {q}\n"


def test_nonpositive_workers_is_usage_error(small_artifacts, tmp_path, capsys):
    argv = ["certify", *_base_args(small_artifacts, tmp_path / "o"),
            "--topk", "2", "--workers", "0"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --workers must be >= 1, got 0\n"


def test_workers_is_checked_before_inputs_are_read(small_artifacts, tmp_path, capsys):
    argv = ["certify", *_base_args(small_artifacts, tmp_path / "o"),
            "--topk", "2", "--workers", "0"]
    argv[argv.index("--model") + 1] = str(tmp_path / "missing-model.json")
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --workers must be >= 1, got 0\n"


def test_negative_budget_is_usage_error_before_inputs_are_read(small_artifacts, tmp_path,
                                                               capsys):
    argv = ["attack", *_base_args(small_artifacts, tmp_path / "o"),
            "--topk", "2", "--budget", "-1"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --budget must be >= 0, got -1\n"
    argv[argv.index("--model") + 1] = str(tmp_path / "missing-model.json")
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --budget must be >= 0, got -1\n"


@pytest.mark.parametrize("scorer", ["occlusion", "vgrad"])
def test_non_finite_feature_is_data_error(small_artifacts, tmp_path, capsys, scorer):
    data = tmp_path / "nan.csv"
    data.write_text("1,2,3,4,5,6,0\n1,nan,3,4,5,6,1\n")
    argv = ["explain", *_base_args(small_artifacts, tmp_path / "o"), "--scorer", scorer]
    argv[argv.index("--data") + 1] = str(data)
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: dataset file {data}: example 1 entry 1 must be finite, got nan\n")


@pytest.mark.parametrize("error,code", [
    (ConfigError("bad flag"), EXIT_USAGE),
    (DataError("bad file"), EXIT_DATA),
    (VerificationError("beaten certificate"), EXIT_VERIFICATION),
    (OSError("disk gone"), EXIT_DATA),
], ids=["ConfigError", "DataError", "VerificationError", "OSError"])
def test_exit_code_per_error_class(monkeypatch, capsys, error, code):
    def fail(max_n, trials, seed):
        raise error

    monkeypatch.setattr("muscert.cli.run_selfcheck", fail)
    assert main(["selfcheck", "--trials", "1"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"
    assert set(MuscertError.__subclasses__()) == {ConfigError, DataError, VerificationError}


@pytest.mark.parametrize("command", ["certify", "explain", "attack"])
@pytest.mark.parametrize("flag", ["--rinc", "--rdec"])
def test_negative_radius_target_is_usage_error_before_inputs_are_read(
        small_artifacts, tmp_path, capsys, command, flag):
    argv = [command, *_base_args(small_artifacts, tmp_path / "o"), flag, "-1"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flag} must be >= 0, got -1\n"
    argv[argv.index("--model") + 1] = str(tmp_path / "missing-model.json")
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flag} must be >= 0, got -1\n"


# ------------------------------------------------------------ integer flags

# Boundary values for every integer flag. The sizes that allocate or loop by
# their value (--q, --lime-samples, --shap-permutations, --trials) take only
# small ones and values above their caps (at n = 6 for SHAP), which are
# refused before any array is built or any trial runs.
INT_VALUES = ["0", "-1", "1", str(2 ** 31), str(2 ** 63), str(2 ** 64), "x"]
SIZE_VALUES = ["-1", "0", "1", "2", "4", "x"]
ABOVE_CAPS = {"--q": 2 ** 16 + 1, "--lime-samples": MAX_EXAMPLE_ROWS,
              "--shap-permutations": (MAX_EXAMPLE_ROWS - 2) // 5 + 1,
              "--trials": MAX_TRIALS + 1}
CAPPED_VALUES = {flag: SIZE_VALUES + [str(v) for v in (above, 2 ** 31, 2 ** 63, 2 ** 64)]
                 for flag, above in ABOVE_CAPS.items()}
SIZE_FLAGS = ("--q", "--lime-samples", "--shap-permutations", "--trials")
SMOOTHING_FLAGS = ("--q", "--lambda-num", "--seed", "--workers")
SCORER_FLAGS = ("--lime-samples", "--shap-permutations")
COMMAND_FLAGS = {
    "certify": SMOOTHING_FLAGS + SCORER_FLAGS + ("--topk", "--rinc", "--rdec"),
    "accuracy-curve": SMOOTHING_FLAGS,
    "explain": SMOOTHING_FLAGS + SCORER_FLAGS + ("--rinc", "--rdec"),
    "attack": SMOOTHING_FLAGS + SCORER_FLAGS + ("--topk", "--rinc", "--rdec", "--budget"),
    "selfcheck": ("--max-n", "--trials", "--seed"),
}


@st.composite
def _integer_flag_argv(draw, small_artifacts):
    """A command line whose integer flags take boundary values. The fixed
    flags come first, so a drawn flag overrides them."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), unique=True, max_size=4))
    argv = [command]
    if command != "selfcheck":
        argv += _base_args(small_artifacts, small_artifacts["dir"] / "flags.out")
    if command in ("certify", "explain", "attack"):
        argv += ["--scorer", draw(st.sampled_from(SCORERS))]
    if command in ("certify", "attack") and not {"--topk", "--rinc", "--rdec"} & set(flags):
        argv += ["--topk", "2"]
    for flag in flags:
        values = CAPPED_VALUES.get(flag, SIZE_VALUES if flag in SIZE_FLAGS else INT_VALUES)
        argv += [flag, draw(st.sampled_from(values))]
    return argv


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_integer_flags_exit_with_a_documented_code(small_artifacts, data):
    argv = data.draw(_integer_flag_argv(small_artifacts))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_VERIFICATION), argv
    lines = err.getvalue().splitlines(keepends=True)
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")
                           and lines[0].endswith("\n")), (argv, lines)


@pytest.mark.parametrize("scorer,flag,name,lo", [("lime", "--lime-samples", "samples", 7),
                                                 ("shap", "--shap-permutations", "permutations", 1)])
@pytest.mark.parametrize("above", [0, 2 ** 31])
def test_scorer_sizes_above_their_cap_are_usage_errors(small_artifacts, tmp_path, capsys,
                                                       scorer, flag, name, lo, above):
    value = ABOVE_CAPS[flag] + above
    argv = ["explain", *_base_args(small_artifacts, tmp_path / "o"), "--scorer", scorer,
            flag, str(value)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {name} must be in [{lo}, {ABOVE_CAPS[flag] - 1}], got {value}\n")


def test_selfcheck_trials_above_the_cap_are_usage_errors(capsys, monkeypatch):
    # The cap is checked before any instance is built: none may be drawn.
    monkeypatch.setattr("muscert.selfcheck._random_instance",
                        lambda *args: pytest.fail("a trial ran"))
    assert main(["selfcheck", "--trials", str(MAX_TRIALS + 1)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: trials must be in [1, {MAX_TRIALS}], got {MAX_TRIALS + 1}\n")


# ------------------------------------------------------------------ certify

@pytest.fixture
def certified(small_artifacts, tmp_path):
    out = tmp_path / "records.ndjson"
    code = main(["certify", *_base_args(small_artifacts, out), "--topk", "3"])
    assert code == EXIT_OK
    return out


def test_certify_record_schema(certified):
    rows = _read_records(certified)
    assert [row["example_id"] for row in rows] == list(range(24))
    for row in rows:
        assert row["q"] == 8
        assert row["lambda_num"] == 2
        assert row["lambda"] == 0.25
        assert row["mu_mode"] == "none"
        assert isinstance(row["consistent"], bool)
        for key in ("r_inc", "r_dec"):
            assert isinstance(row[key], int) and row[key] >= 0
        assert row["gap_at_attr"] >= 0.0 and row["gap_at_ones"] >= 0.0


def test_certify_curves_track_records(certified, small_artifacts):
    curves = _read_curves(str(certified) + ".curves")
    n = 6
    assert sorted(curves["inc"]) == list(range(n + 1))
    assert sorted(curves["dec"]) == list(range(n + 1))
    for mode in ("inc", "dec"):
        values = [curves[mode][r] for r in range(n + 1)]
        assert all(b <= a for a, b in zip(values, values[1:]))
    assert curves["inc"][0] == 1.0

    # Rebuild the pipeline in-process and recompute both curves on the
    # definitional q-query path.
    model = load_model(small_artifacts["model_path"])
    grouping = FeatureGrouping.trivial(6)
    cfg = SmoothingConfig(n=6, q=8, lambda_num=2, seed=0)
    smoothed = SmoothedModel.build(model, grouping, cfg)
    certs = []
    for x, _y in small_artifacts["test"].examples:
        phi = topk_binarize(occlusion_scores(smoothed, x), 3)
        certs.append(definitional_certificate(smoothed, x, phi))
    for r in range(n + 1):
        assert curves["inc"][r] == sum(r_inc >= r for _, r_inc, _ in certs) / 24
        assert curves["dec"][r] == sum(ok and r_dec >= r for ok, _, r_dec in certs) / 24


def _survival_by_definition(radii_ok, n):
    """The curve as defined: for each r, the ok rows with radius >= r over all rows."""
    total = len(radii_ok)
    return [sum(1 for radius, ok in radii_ok if ok and radius >= r) / total
            for r in range(n + 1)]


def test_survival_curve_equals_its_definition():
    """One count per row and radius summed from the top gives the same
    floats as the count per r, with radii past n and rows that are not ok,
    for every row of a batch of curves."""
    stream = LcgStream(derive_rng_state(9, 1))
    for n in (1, 3, 16):
        for rows in (1, 2, 7, 200):
            batch = [[(stream.next_below(n + 4), stream.next_below(3) > 0) for _ in range(rows)]
                     for _curve in range(3)]
            radii, ok = np.array(batch, dtype=np.intp).transpose(2, 0, 1)
            got = cli._survival_curves(radii, ok.astype(bool), n)
            assert [list(map(repr, curve)) for curve in got] == [
                list(map(repr, _survival_by_definition(radii_ok, n))) for radii_ok in batch]
    for radii_ok in ([(0, False)], [(2 ** 62, True), (5, False), (1, True)],
                     [(3, True)] * 3 + [(0, True)] * 4):
        radii, ok = np.array(radii_ok, dtype=np.intp).T
        assert (cli._survival_curves(radii[None], ok[None].astype(bool), 4)
                == [_survival_by_definition(radii_ok, 4)])


def test_desk_commands_take_no_per_example_certificate_path(desk, tmp_path, monkeypatch):
    """On the desk, certify and accuracy-curve build no CertRecord, and no
    radius is taken one gap at a time: greedy_stable_masks (under explain)
    takes each round's radii in one radii_from_gaps call over its gap array."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("per-example certificate path")

    monkeypatch.setattr(certify.CertRecord, "__init__", refuse)
    shapes = []
    radii_from_gaps = attribution.radii_from_gaps
    monkeypatch.setattr(attribution, "radii_from_gaps", lambda gaps, lambda_num, q: (
        shapes.append(gaps.shape), radii_from_gaps(gaps, lambda_num, q))[1])
    base = ["--model", desk["model_path"], "--data", desk["test_path"], "--q", "16",
            "--seed", "11"]
    runs = [("certify", "--lambda-num", "4", "--topk", "8"),
            ("certify", "--lambda-num", "2", "--topk", "8", "--mu-mode", "phi"),
            ("accuracy-curve", "--lambda-num", "4"),
            ("explain", "--lambda-num", "4", "--scorer", "vgrad", "--rinc", "0", "--rdec", "0")]
    for k, (command, *flags) in enumerate(runs):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, *base, *flags, "--out", str(tmp_path / str(k))]) == EXIT_OK
    assert shapes[0] == (len(desk["test"]), 2)
    assert 2 <= len(shapes) <= 5 and all(len(shape) == 2 for shape in shapes), shapes


def test_certify_full_keep_rate_pins_radii_to_zero(small_artifacts, tmp_path):
    out = tmp_path / "lam1.ndjson"
    argv = ["certify", *_base_args(small_artifacts, out), "--topk", "3"]
    argv[argv.index("--lambda-num") + 1] = "8"
    assert main(argv) == EXIT_OK
    assert all(r["r_inc"] == 0 and r["r_dec"] == 0 for r in _read_records(out))
    curves = _read_curves(str(out) + ".curves")
    assert curves["inc"][1] == 0.0 and curves["dec"][1] == 0.0


def test_certify_with_grouping_file(small_artifacts, tmp_path):
    gpath = tmp_path / "groups.json"
    gpath.write_text(json.dumps({"d": 6, "groups": [[0, 1, 2], [3, 4], [5]]}))
    out = tmp_path / "grouped.ndjson"
    argv = ["certify", *_base_args(small_artifacts, out),
            "--grouping", str(gpath), "--topk", "1"]
    assert main(argv) == EXIT_OK
    curves = _read_curves(str(out) + ".curves")
    assert sorted(curves["inc"]) == [0, 1, 2, 3]  # n = 3 groups


def test_grouping_file_the_rule_refuses_is_data_error_naming_it(small_artifacts, tmp_path,
                                                                 capsys):
    gpath = tmp_path / "groups.json"
    gpath.write_text(json.dumps({"d": 6, "groups": [[0, 1], [1, 2], [3, 4, 5]]}))
    argv = ["accuracy-curve", *_base_args(small_artifacts, tmp_path / "o"),
            "--grouping", str(gpath)]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: grouping file {gpath}: raw index 1 appears in more than one group\n")


# What a grouping document over the d = 6 features of the small fixture can
# hold in place of an index, of a group, or of its list of groups.
NOT_INDICES = [6, -1, 2 ** 70, True, False, 1.0, 2.5, "0", None, [0], {"i": 0}]
NOT_GROUPS = [5, "0", None, 1.5, {"0": 0}]
NOT_GROUP_LISTS = [None, 3, "[[0]]", {"0": [0]}]


@st.composite
def _grouping_document(draw):
    """A partition of 0..5 into groups, with faults put into it: a repeated,
    foreign or missing index, an empty group, then maybe a group or a list
    of groups that is no list."""
    order = draw(st.permutations(range(6)))
    cuts = sorted(draw(st.sets(st.integers(1, 5), max_size=5)))
    groups = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, 6])]
    for fault in draw(st.lists(st.sampled_from(["repeat", "foreign", "missing", "empty"]),
                               max_size=3)):
        at = draw(st.integers(0, len(groups) - 1))
        if fault == "repeat":
            groups[at].append(draw(st.integers(0, 5)))
        elif fault == "foreign":
            groups[at].append(draw(st.sampled_from(NOT_INDICES)))
        elif fault == "missing":
            groups[at] = groups[at][:-1]
        else:
            groups.insert(at, [])
    if draw(st.integers(0, 4)) == 0:
        groups[draw(st.integers(0, len(groups) - 1))] = draw(st.sampled_from(NOT_GROUPS))
    if draw(st.integers(0, 9)) == 0:
        groups = draw(st.sampled_from(NOT_GROUP_LISTS))
    d = 6
    if draw(st.integers(0, 4)) == 0:
        d = draw(st.sampled_from([5, 7, 0, -1, True, 6.0, "6", None, 2 ** 70]))
    return {"d": d, "groups": groups}


@given(doc=_grouping_document())
@settings(max_examples=100, deadline=None)
def test_grouping_documents_exit_with_a_documented_code(small_artifacts, doc):
    """Whatever a grouping document holds, the CLI exits 0, or 2 with one
    error line."""
    gpath = small_artifacts["dir"] / "drawn-groups.json"
    gpath.write_text(json.dumps(doc))
    argv = ["accuracy-curve", *_base_args(small_artifacts, small_artifacts["dir"] / "g.out"),
            "--grouping", str(gpath)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines(keepends=True)
    if code == EXIT_OK:
        assert lines == [], doc
    else:
        assert code == EXIT_DATA, (doc, lines)
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")


def test_certify_greedy_targets_mode(small_artifacts, tmp_path):
    out = tmp_path / "greedy.ndjson"
    argv = ["certify", *_base_args(small_artifacts, out), "--rinc", "0",
            "--rdec", "0"]
    assert main(argv) == EXIT_OK
    assert len(_read_records(out)) == 24


def test_certify_mu_mode_phi_changes_the_certificates(small_artifacts, tmp_path):
    plain_out = tmp_path / "plain.ndjson"
    phi_out = tmp_path / "phi.ndjson"
    base = _base_args(small_artifacts, plain_out, ("--topk", "3"))
    assert main(["certify", *base]) == EXIT_OK
    base[base.index(str(plain_out))] = str(phi_out)
    assert main(["certify", *base, "--mu-mode", "phi"]) == EXIT_OK
    plain = _read_records(plain_out)
    shielded = _read_records(phi_out)
    assert len(shielded) == 24
    assert all(row["mu_mode"] == "phi" for row in shielded)
    assert all(row["mu_mode"] == "none" for row in plain)
    # Exempted groups stop being ablated, so the masked-side numbers move.
    assert any(a["gap_at_attr"] != b["gap_at_attr"]
               for a, b in zip(plain, shielded))


# ------------------------------------------------------------- determinism

def test_outputs_do_not_depend_on_workers(small_artifacts, tmp_path):
    outs = []
    for tag, extra in (("a", ["--workers", "1"]),
                       ("b", ["--workers", "3"]),
                       ("c", [])):
        out = tmp_path / f"{tag}.ndjson"
        argv = ["certify", *_base_args(small_artifacts, out),
                "--topk", "3", "--scorer", "lime", *extra]
        assert main(argv) == EXIT_OK
        outs.append((out.read_bytes(), (tmp_path / f"{tag}.ndjson.curves").read_bytes()))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("scorer", ["lime", "shap"])
def test_explain_does_not_depend_on_workers(small_artifacts, tmp_path, scorer):
    outs = []
    for workers in ("1", "3"):
        out = tmp_path / f"{scorer}-{workers}.ndjson"
        argv = ["explain", *_base_args(small_artifacts, out),
                "--scorer", scorer, "--rinc", "1", "--rdec", "0", "--workers", workers]
        assert main(argv) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_repeat_runs_are_byte_identical(small_artifacts, tmp_path):
    blobs = []
    for tag in ("x", "y"):
        out = tmp_path / f"{tag}.ndjson"
        argv = ["explain", *_base_args(small_artifacts, out),
                "--scorer", "shap", "--rinc", "0", "--rdec", "0"]
        assert main(argv) == EXIT_OK
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


# ----------------------------------------------------------- accuracy curve

def test_accuracy_curve_intercept_is_clean_accuracy(small_artifacts, tmp_path):
    out = tmp_path / "acc.txt"
    argv = ["accuracy-curve", *_base_args(small_artifacts, out)]
    assert main(argv) == EXIT_OK
    lines = [ln.split() for ln in open(out, encoding="utf-8")]
    assert [int(r) for r, _ in lines] == list(range(7))
    values = [float(v) for _, v in lines]
    assert all(b <= a for a, b in zip(values, values[1:]))

    model = load_model(small_artifacts["model_path"])
    cfg = SmoothingConfig(n=6, q=8, lambda_num=2, seed=0)
    smoothed = SmoothedModel.build(model, FeatureGrouping.trivial(6), cfg)
    hits = 0
    for x, y in small_artifacts["test"].examples:
        pred, _ = top_class_and_gap(mus_evaluate(smoothed, x, ones_mask(6)))
        hits += pred == y
    assert values[0] == hits / 24


# ------------------------------------------------------------------ explain

@pytest.mark.parametrize("scorer", ["occlusion", "vgrad", "lime", "shap"])
def test_explain_emits_rows_and_summary(small_artifacts, tmp_path, scorer):
    out = tmp_path / f"explain-{scorer}.ndjson"
    argv = ["explain", *_base_args(small_artifacts, out),
            "--scorer", scorer, "--rinc", "0", "--rdec", "0"]
    assert main(argv) == EXIT_OK
    rows = _read_records(out)
    summary = rows.pop()
    assert summary["summary"] is True
    assert summary["scorer"] == scorer
    assert summary["examples"] == 24
    assert summary["not_met"] == sum(1 for row in rows if not row["met"])
    total = 0.0
    for row in rows:
        total += row["k_x"]
    assert summary["mean_k_x"] == total / len(rows)
    for row in rows:
        assert len(row["mask"]) == 6
        assert row["k_x"] == sum(row["mask"]) / 6
        assert set(row["mask"]) <= {0, 1}


@pytest.mark.parametrize("rdec", [0, 99])
def test_explain_rows_met_or_not_are_compact_json(small_artifacts, tmp_path, rdec):
    """No all-ones radius reaches 99, so every example keeps all-ones unmet."""
    out = tmp_path / "explain.ndjson"
    argv = ["explain", *_base_args(small_artifacts, out),
            "--scorer", "occlusion", "--rinc", "0", "--rdec", str(rdec)]
    assert main(argv) == EXIT_OK
    rows = _compact_records(out)
    assert rows.pop()["not_met"] == (24 if rdec else 0)
    assert {row["met"] for row in rows} == {not rdec}
    assert [row["example_id"] for row in rows] == list(range(24))
    if rdec:
        assert all(row["mask"] == [1] * 6 and row["k_x"] == 1.0 for row in rows)


# ------------------------------------------------------------------- attack

def test_attack_passes_on_sound_certificates(small_artifacts, tmp_path, capsys):
    out = tmp_path / "attack.ndjson"
    argv = ["attack", *_base_args(small_artifacts, out),
            "--topk", "3", "--budget", "2"]
    assert main(argv) == EXIT_OK
    rows = _read_records(out)
    summary = rows.pop()
    assert summary["verdict"] == "PASS"
    assert summary["violations"] == 0
    for row in rows:
        assert row["sound"] is True
        assert row["budget"] == 2
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("budget", [99, 2 ** 63, 10 ** 30])
def test_attack_clips_budget_to_free_bits(small_artifacts, tmp_path, budget):
    out = tmp_path / "clip.ndjson"
    argv = ["attack", *_base_args(small_artifacts, out),
            "--topk", "5", "--budget", str(budget)]
    assert main(argv) == EXIT_OK
    rows = _read_records(out)
    rows.pop()
    assert all(row["budget"] == 1 for row in rows)  # 6 groups - topk 5


def test_attack_violation_exits_three(small_artifacts, tmp_path, monkeypatch, capsys):
    def forged_attack(model, xs, examples, phis, budgets, modes, ref_classes):
        return [AttackResult(mode=mode, found=True, radius=0, witness=phi)
                for phi, mode in zip(phis, modes)]

    monkeypatch.setattr("muscert.cli._attack_stage", forged_attack)
    out = tmp_path / "forged.ndjson"
    argv = ["attack", *_base_args(small_artifacts, out),
            "--topk", "3", "--budget", "2"]
    assert main(argv) == EXIT_VERIFICATION
    assert "FAIL" in capsys.readouterr().out


def test_attack_rows_with_witnesses_are_compact_json(small_artifacts, tmp_path, monkeypatch):
    """A weak model lets some walks of either mode flip the class (found
    true, sound since beyond the radius); a forged stage makes every row
    unsound."""
    model_path = tmp_path / "weak.json"
    save_model(random_linear(6, 3, 4, scale=0.05), str(model_path))
    out = tmp_path / "attack.ndjson"
    argv = ["attack", "--model", str(model_path), "--data", small_artifacts["data_path"],
            "--out", str(out), "--q", "8", "--lambda-num", "2", "--topk", "3"]
    assert main(argv) == EXIT_OK
    rows = _compact_records(out)
    assert rows.pop()["violations"] == 0
    assert any(row["inc_found"] for row in rows) and any(row["dec_found"] for row in rows)
    assert all(row["sound"] for row in rows)

    monkeypatch.setattr(cli, "_attack_stage", lambda model, xs, examples, phis, budgets, modes,
                        refs: [AttackResult(mode, True, 0, None) for mode in modes])
    assert main(argv) == EXIT_VERIFICATION
    rows = _compact_records(out)
    assert rows.pop() == {"summary": True, "examples": 24, "violations": 24, "verdict": "FAIL"}
    assert not any(row["sound"] for row in rows)


def test_attack_walks_start_from_the_certificates_classes(small_artifacts, tmp_path,
                                                         monkeypatch):
    """The attack stage takes each walk's reference class from the
    certificates: the class at phi for an inc walk, at all-ones for a dec
    walk. With --topk 0 every phi is empty and its class is the zero input's,
    so the examples of the other classes are inconsistent."""
    seen = []
    real = cli._attack_stage

    def spy(model, xs, examples, phis, budgets, modes, ref_classes):
        starts = np.where(np.array(modes)[:, None] == "inc", phis, np.uint8(1))
        seen.append((list(ref_classes), top_classes_and_gaps(
            mus_evaluate_pairs(model, xs, examples, starts))[0].tolist()))
        return real(model, xs, examples, phis, budgets, modes, ref_classes)

    monkeypatch.setattr(cli, "_attack_stage", spy)
    argv = ["attack", *_base_args(small_artifacts, tmp_path / "attack.ndjson"), "--topk", "0"]
    assert main(argv) == EXIT_OK
    [(refs, starts)] = seen
    assert refs == starts and refs[:24] != refs[24:]


# ---------------------------------------------------------------- selfcheck

def test_selfcheck_passes_and_reports_suites(capsys):
    assert main(["selfcheck", "--max-n", "4", "--trials", "4"]) == EXIT_OK
    output = capsys.readouterr().out
    assert "selfcheck: all suites passed" in output
    assert output.count("failures") >= 5


def test_selfcheck_failure_exits_three(monkeypatch):
    report = SelfcheckReport(suites=(
        SuiteResult(name="forged", trials=1, failures=1, first_failure_seed=0),
    ))
    monkeypatch.setattr("muscert.cli.run_selfcheck",
                        lambda max_n, trials, seed: report)
    assert main(["selfcheck", "--trials", "1"]) == EXIT_VERIFICATION


def test_module_entry_point_runs():
    # The child imports the same package as this process, installed or not.
    src = str(Path(muscert.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "muscert", "selfcheck",
         "--max-n", "3", "--trials", "2"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all suites passed" in proc.stdout
