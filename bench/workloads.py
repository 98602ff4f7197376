"""The four workloads: inputs built from a seed, the CLI calls of one pass,
and the check applied to every output.

A pass is the list of `muscert` invocations a workload makes; a unit of
work is one dataset row through one invocation, or one selfcheck trial.
Every check returns the units whose output is wrong, keyed by row or
trial, so that each failure feeds `failed_frac` once.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from muscert import attribution, certify, core, data, models, noise, smoothing

# The desk fixture of the test suite: d=16, m=3, 500 train and 200 test rows,
# separation 4.0, 500 epochs of full-batch descent, q=16.
D, M, SEPARATION = 16, 3, 4.0
TRAIN_ROWS, TEST_ROWS = 500, 200
EPOCHS, LEARNING_RATE = 500, 0.1
Q = 16
TOPK = 8
ATTACK_BUDGET = 4
# One worker: on a 2-vCPU host, two interpreter-lock-bound worker threads hand
# the lock across vCPUs, and an attack invocation took 6.2-9.5 s against
# 4.7-5.7 s with one, with 8x the spread once scaled to the host's speed. That
# measures the host's scheduler, not the program; see bench/README.md.
ATTACK_WORKERS = 1
SELFCHECK_MAX_N = 8
# Trial seeds set each instance's size, so the work per trial varies with the
# seed; 300 trials keep that variation to a few percent of a pass.
SELFCHECK_TRIALS = 300
# Issued certificates re-checked by brute force per invocation, chosen from
# the workload seed. Radii at q=16 are at most 2q/(2*lambda_num), so the
# enumeration stays within a few hundred masks per certificate.
SAMPLED_CERTIFICATES = 4

SELFCHECK_SUITES = ("lqv_marginals", "lipschitz", "masking_equivalence",
                    "soundness", "shap_efficiency", "gradient_fd")


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass: its argv, output files, work and check."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    units: int
    check: Callable[["Invocation", "Context", str], dict[int, str]]


@dataclass
class Context:
    """What the checks need: the seed, the work directory and the inputs."""

    seed: int
    workdir: Path
    base: object = None
    dataset: object = None

    def load_inputs(self) -> None:
        self.base = models.load_model(str(self.workdir / "model.json"))
        self.dataset = data.load_csv_dataset(str(self.workdir / "test.csv"))

    def smoothed(self, lambda_num: int, mu=None) -> smoothing.SmoothedModel:
        grouping = core.FeatureGrouping.trivial(D)
        cfg = noise.SmoothingConfig(q=Q, lambda_num=lambda_num, seed=self.seed, n=D)
        return smoothing.SmoothedModel.build(self.base, grouping, cfg, mu=mu)


def build_desk_inputs(seed: int, workdir: Path) -> None:
    """Desk fixture from the workload seed: blobs, trainer, model and test files."""
    train = data.synth_blobs(-(-TRAIN_ROWS // M), D, M, SEPARATION,
                             noise.derive_rng_state(seed, 0))
    test = data.synth_blobs(-(-TEST_ROWS // M), D, M, SEPARATION,
                            noise.derive_rng_state(seed, 1))
    train = data.LabeledDataset(examples=train.examples[:TRAIN_ROWS], d=D, m=M)
    test = data.LabeledDataset(examples=test.examples[:TEST_ROWS], d=D, m=M)
    model = models.fit_logistic(train, epochs=EPOCHS, learning_rate=LEARNING_RATE,
                                rng_state=0)
    models.save_model(model, str(workdir / "model.json"))
    data.save_csv_dataset(test, str(workdir / "test.csv"))


# -- checks --------------------------------------------------------------


def _all(inv: Invocation, why: str) -> dict[int, str]:
    return {unit: f"{inv.label}: {why}" for unit in range(inv.units)}


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _sample(ctx: Context, inv: Invocation) -> list[int]:
    rng = random.Random(f"{ctx.seed}:{inv.label}")
    return sorted(rng.sample(range(TEST_ROWS), SAMPLED_CERTIFICATES))


def _non_increasing(values: list[float]) -> bool:
    return all(0.0 <= v <= 1.0 for v in values) and all(
        a >= b for a, b in zip(values, values[1:]))


def _survival(radii_ok: list[tuple[int, bool]]) -> list[float]:
    total = len(radii_ok)
    return [sum(1 for r, ok in radii_ok if ok and r >= k) / total for k in range(D + 1)]


def _recheck(model, x, phi, r_inc: int, r_dec: int) -> bool:
    """Brute-force both certified radii of one issued certificate."""
    return (certify.brute_force_stability_oracle(model, x, phi, r_inc, "inc")
            and certify.brute_force_stability_oracle(model, x, phi, r_dec, "dec"))


def _topk_phi(model, x):
    return attribution.topk_binarize(attribution.occlusion_scores(model, x), TOPK)


def _arg(inv: Invocation, flag: str) -> str:
    return inv.argv[inv.argv.index(flag) + 1]


def check_certify(inv: Invocation, ctx: Context, _stdout: str) -> dict[int, str]:
    lambda_num = int(_arg(inv, "--lambda-num"))
    mu_mode = _arg(inv, "--mu-mode") if "--mu-mode" in inv.argv else "none"
    records = [json.loads(line) for line in _read_lines(Path(inv.outputs[0]))]
    if len(records) != TEST_ROWS:
        return _all(inv, f"{len(records)} records for {TEST_ROWS} rows")
    bad: dict[int, str] = {}
    for i, rec in enumerate(records):
        if (rec["example_id"] != i or rec["lambda_num"] != lambda_num or rec["q"] != Q
                or rec["mu_mode"] != mu_mode or rec["r_inc"] < 0 or rec["r_dec"] < 0):
            bad[i] = f"{inv.label}: record {i} malformed"
    curve = _read_lines(Path(inv.outputs[1]))
    inc = _survival([(rec["r_inc"], True) for rec in records])
    dec = _survival([(rec["r_dec"], rec["consistent"]) for rec in records])
    expected = [f"inc {r} {inc[r]!r}" for r in range(D + 1)]
    expected += [f"dec {r} {dec[r]!r}" for r in range(D + 1)]
    if curve != expected or not (_non_increasing(inc) and _non_increasing(dec)):
        return _all(inv, "curves disagree with records")
    smoothed = ctx.smoothed(lambda_num)
    for i in _sample(ctx, inv):
        x = ctx.dataset.examples[i][0]
        phi = _topk_phi(smoothed, x)
        model = ctx.smoothed(lambda_num, mu=phi) if mu_mode == "phi" else smoothed
        again = certify.certify_example(model, x, phi, example_id=i).to_json_dict()
        if again != records[i]:
            bad[i] = f"{inv.label}: record {i} not reproduced"
        elif not _recheck(model, x, phi, again["r_inc"], again["r_dec"]):
            bad[i] = f"{inv.label}: record {i} rejected by brute force"
    return bad


def check_accuracy_curve(inv: Invocation, ctx: Context, _stdout: str) -> dict[int, str]:
    lines = [line.split() for line in _read_lines(Path(inv.outputs[0]))]
    radii = [int(r) for r, _ in lines]
    values = [float(v) for _, v in lines]
    if radii != list(range(D + 1)) or not _non_increasing(values):
        return _all(inv, "curve is not n+1 non-increasing points")
    return {}


def _rows_and_summary(inv: Invocation) -> tuple[list[dict], dict] | None:
    docs = [json.loads(line) for line in _read_lines(Path(inv.outputs[0]))]
    if len(docs) != TEST_ROWS + 1 or not docs[-1].get("summary"):
        return None
    rows = docs[:-1]
    if [row["example_id"] for row in rows] != list(range(TEST_ROWS)):
        return None
    return rows, docs[-1]


def check_explain(inv: Invocation, ctx: Context, _stdout: str) -> dict[int, str]:
    lambda_num = int(_arg(inv, "--lambda-num"))
    scorer = _arg(inv, "--scorer")
    parsed = _rows_and_summary(inv)
    if parsed is None:
        return _all(inv, "wrong record count")
    rows, summary = parsed
    bad: dict[int, str] = {}
    for row in rows:
        mask = tuple(row["mask"])
        if (row["scorer"] != scorer or len(mask) != D or set(mask) - {0, 1}
                or row["k_x"] != sum(mask) / D):
            bad[row["example_id"]] = f"{inv.label}: row {row['example_id']} malformed"
    mean_k = sum(row["k_x"] for row in rows) / len(rows)
    not_met = sum(1 for row in rows if not row["met"])
    if (summary["examples"] != TEST_ROWS or summary["mean_k_x"] != mean_k
            or summary["not_met"] != not_met):
        return _all(inv, "summary disagrees with rows")
    smoothed = ctx.smoothed(lambda_num)
    for i in _sample(ctx, inv):
        x = ctx.dataset.examples[i][0]
        mask = tuple(rows[i]["mask"])
        rec = certify.certify_example(smoothed, x, mask, example_id=i)
        if rows[i]["met"] and not rec.consistent:
            bad[i] = f"{inv.label}: row {i} met but inconsistent"
        elif not _recheck(smoothed, x, mask, rec.r_inc, rec.r_dec):
            bad[i] = f"{inv.label}: row {i} rejected by brute force"
    return bad


def check_attack(inv: Invocation, ctx: Context, stdout: str) -> dict[int, str]:
    lambda_num = int(_arg(inv, "--lambda-num"))
    parsed = _rows_and_summary(inv)
    if parsed is None:
        return _all(inv, "wrong record count")
    rows, summary = parsed
    bad: dict[int, str] = {}
    for row in rows:
        sound = ((not row["inc_found"] or row["inc_radius"] > row["r_inc"])
                 and (not row["dec_found"] or row["dec_radius"] > row["r_dec"]))
        if not (sound and row["sound"] and row["budget"] == ATTACK_BUDGET):
            bad[row["example_id"]] = f"{inv.label}: row {row['example_id']} unsound"
    if (summary["verdict"] != "PASS" or summary["violations"] != 0
            or "soundness verdict: PASS" not in stdout):
        return _all(inv, "verdict is not PASS")
    smoothed = ctx.smoothed(lambda_num)
    for i in _sample(ctx, inv):
        x = ctx.dataset.examples[i][0]
        phi = _topk_phi(smoothed, x)
        rec = certify.certify_example(smoothed, x, phi, example_id=i)
        if (rec.r_inc, rec.r_dec) != (rows[i]["r_inc"], rows[i]["r_dec"]):
            bad[i] = f"{inv.label}: row {i} radii not reproduced"
        elif not _recheck(smoothed, x, phi, rec.r_inc, rec.r_dec):
            bad[i] = f"{inv.label}: row {i} rejected by brute force"
    return bad


def check_selfcheck(inv: Invocation, _ctx: Context, stdout: str) -> dict[int, str]:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "selfcheck: all suites passed":
        return _all(inv, "selfcheck did not pass")
    failures = 0
    for suite in SELFCHECK_SUITES:
        prefix = f"{suite}: {SELFCHECK_TRIALS} trials, "
        line = next((ln for ln in lines if ln.startswith(prefix)), None)
        if line is None:
            return _all(inv, f"suite {suite} missing")
        failures += int(line[len(prefix):].split()[0])
    return {t: f"{inv.label}: failing trials" for t in range(min(failures, inv.units))}


# -- workloads -----------------------------------------------------------


def _desk_call(ctx: Context, label: str, command: str, lambda_num: int,
               extra: tuple[str, ...], check, curves: bool = False) -> Invocation:
    out = str(ctx.workdir / f"{label}.out")
    argv = (command, "--model", str(ctx.workdir / "model.json"),
            "--data", str(ctx.workdir / "test.csv"), "--out", out,
            "--q", str(Q), "--lambda-num", str(lambda_num), "--seed", str(ctx.seed)) + extra
    outputs = (out, out + ".curves") if curves else (out,)
    return Invocation(label, argv, outputs, TEST_ROWS, check)


def certify_desk(ctx: Context) -> list[Invocation]:
    topk = ("--topk", str(TOPK))
    calls = [_desk_call(ctx, f"certify-l{lam}", "certify", lam, topk, check_certify, True)
             for lam in (2, 4, 8)]
    calls.append(_desk_call(ctx, "certify-phi-l2", "certify", 2,
                            topk + ("--mu-mode", "phi"), check_certify, True))
    calls.append(_desk_call(ctx, "accuracy-l4", "accuracy-curve", 4, (),
                            check_accuracy_curve))
    return calls


def explain_scorers(ctx: Context) -> list[Invocation]:
    return [_desk_call(ctx, f"explain-{scorer}", "explain", 4,
                       ("--scorer", scorer, "--rinc", "0", "--rdec", "0"), check_explain)
            for scorer in ("vgrad", "lime", "shap")]


def attack_audit(ctx: Context) -> list[Invocation]:
    return [_desk_call(ctx, "attack-l4", "attack", 4,
                       ("--topk", str(TOPK), "--budget", str(ATTACK_BUDGET),
                        "--workers", str(ATTACK_WORKERS)), check_attack)]


def selfcheck_small(ctx: Context) -> list[Invocation]:
    # Consecutive workload seeds get disjoint trial seeds.
    argv = ("selfcheck", "--max-n", str(SELFCHECK_MAX_N), "--trials", str(SELFCHECK_TRIALS),
            "--seed", str(ctx.seed * SELFCHECK_TRIALS))
    return [Invocation("selfcheck", argv, (), SELFCHECK_TRIALS, check_selfcheck)]


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[Context], list[Invocation]]
    desk: bool


WORKLOADS = {w.name: w for w in (
    Workload("certify-desk", certify_desk, True),
    Workload("explain-scorers", explain_scorers, True),
    Workload("attack-audit", attack_audit, True),
    Workload("selfcheck-small", selfcheck_small, False),
)}
