"""Command-line behavior: exit codes, file formats, determinism."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from muscert.attack import AttackResult
from muscert.attribution import occlusion_scores, topk_binarize
from muscert.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)
from muscert.core import (
    ConfigError,
    DataError,
    FeatureGrouping,
    MuscertError,
    VerificationError,
    top_class_and_gap,
)
from muscert.models import load_model
from muscert.noise import SmoothingConfig
from muscert.selfcheck import SelfcheckReport, SuiteResult
from muscert.smoothing import SmoothedModel, smoothed_predict

from conftest import definitional_certificate


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
        pred, _ = top_class_and_gap(smoothed_predict(smoothed, x))
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
    assert summary["mean_k_x"] == sum(row["k_x"] for row in rows) / len(rows)
    for row in rows:
        assert len(row["mask"]) == 6
        assert row["k_x"] == sum(row["mask"]) / 6
        assert set(row["mask"]) <= {0, 1}


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


def test_attack_clips_budget_to_free_bits(small_artifacts, tmp_path):
    out = tmp_path / "clip.ndjson"
    argv = ["attack", *_base_args(small_artifacts, out),
            "--topk", "5", "--budget", "99"]
    assert main(argv) == EXIT_OK
    rows = _read_records(out)
    rows.pop()
    assert all(row["budget"] == 1 for row in rows)  # 6 groups - topk 5


def test_attack_violation_exits_three(small_artifacts, tmp_path, monkeypatch, capsys):
    def forged_attack(model, x, phi, budget):
        return AttackResult(mode="inc", found=True, radius=0, witness=phi,
                            trace=())

    monkeypatch.setattr("muscert.cli.attack_incremental", forged_attack)
    out = tmp_path / "forged.ndjson"
    argv = ["attack", *_base_args(small_artifacts, out),
            "--topk", "3", "--budget", "2"]
    assert main(argv) == EXIT_VERIFICATION
    assert "FAIL" in capsys.readouterr().out


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
    proc = subprocess.run(
        [sys.executable, "-m", "muscert", "selfcheck",
         "--max-n", "3", "--trials", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all suites passed" in proc.stdout
