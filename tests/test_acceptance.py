"""Acceptance gate: twelve end-to-end guarantees, one test each.

Each test pins the tolerances and instance counts the package promises.
Slow suites carry explicit wall-clock budgets checked with time.monotonic.
"""
from __future__ import annotations

import json
import math
import time
from fractions import Fraction

from muscert.attribution import lime_lite_scores, shap_lite_scores
from muscert.certify import (
    brute_force_stability_oracle,
    certify_example,
)
from muscert.cli import EXIT_OK, main
from muscert.core import FeatureGrouping, mask_and, mask_apply, top_class_and_gap
from muscert.models import random_linear, random_mlp
from muscert.noise import (
    LcgStream,
    SmoothingConfig,
    derive_rng_state,
    enumerate_atoms,
)
from muscert.smoothing import (
    SmoothedModel,
    additive_leakage_demo,
    masking_equivalence_check,
    mus_evaluate,
    rmus_estimate,
    smoothed_predict,
)

Q_CHOICES = (4, 8, 16)


def _random_x(stream, n, span=2.0):
    return tuple(2 * span * stream.next_unit() - span for _ in range(n))


def _random_mask(stream, n):
    return tuple(stream.next_below(2) for _ in range(n))


def _all_masks(n):
    return [tuple((code >> i) & 1 for i in range(n)) for code in range(1 << n)]


def test_c01_lipschitz_bound_holds_exhaustively():
    """>= 50 instances, n <= 8, q in {4,8,16}, every keep rate, all mask pairs."""
    t0 = time.monotonic()
    for trial in range(54):
        n = 2 + trial % 7
        q = Q_CHOICES[trial % 3]
        m = 2 + trial % 2
        stream = LcgStream(derive_rng_state(900, trial))
        base = random_linear(n, m, derive_rng_state(901, trial))
        x = _random_x(stream, n)
        grouping = FeatureGrouping.trivial(n)
        masks = _all_masks(n)
        for lambda_num in range(1, q + 1):
            cfg = SmoothingConfig(n=n, q=q, lambda_num=lambda_num, seed=trial)
            model = SmoothedModel.build(base, grouping, cfg)
            table = [mus_evaluate(model, x, alpha) for alpha in masks]
            lam = lambda_num / q
            size = len(masks)
            for a in range(size):
                pa = table[a]
                for b in range(a + 1, size):
                    bound = lam * (a ^ b).bit_count() + 1e-9
                    pb = table[b]
                    for c in range(m):
                        assert abs(pa[c] - pb[c]) <= bound, (
                            f"trial {trial} q={q} lambda={lambda_num}/{q}: "
                            f"pair {a:0{n}b}/{b:0{n}b} class {c} breaks the bound"
                        )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"Lipschitz sweep took {elapsed:.1f}s (budget 60s)"


def test_c02_atom_marginals_are_exact_integers():
    """200 random configs: per-coordinate count of 1-bits == lambda_num."""
    stream = LcgStream(derive_rng_state(902, 0))
    q_pool = (2, 3, 4, 5, 6, 8, 12, 16, 24, 32)
    for trial in range(200):
        q = q_pool[stream.next_below(len(q_pool))]
        cfg = SmoothingConfig(
            n=1 + stream.next_below(12),
            q=q,
            lambda_num=1 + stream.next_below(q),
            seed=stream.next_u64(),
        )
        atoms = enumerate_atoms(cfg)
        for i in range(cfg.n):
            ones = sum(atom[i] for atom in atoms.atoms)
            assert ones == cfg.lambda_num


def test_c03_masking_equivalence_exhaustive():
    """g(x, alpha) == g(x masked by alpha, all-ones) across every mask."""
    plans = [(2, 4, 1), (3, 8, 3), (4, 8, 5), (5, 4, 2), (6, 8, 7),
             (7, 8, 4), (8, 16, 6)]
    for trial, (n, q, lambda_num) in enumerate(plans):
        stream = LcgStream(derive_rng_state(903, trial))
        base = random_linear(n, 2 + trial % 2, derive_rng_state(904, trial))
        cfg = SmoothingConfig(n=n, q=q, lambda_num=lambda_num, seed=trial)
        model = SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg)
        x = _random_x(stream, n)
        assert masking_equivalence_check(model, x, _all_masks(n))

    # Noise-exempt variant: identity holds for every alpha covering mu.
    n, q, lambda_num = 6, 8, 3
    stream = LcgStream(derive_rng_state(905, 0))
    base = random_linear(n, 3, derive_rng_state(906, 0))
    cfg = SmoothingConfig(n=n, q=q, lambda_num=lambda_num, seed=1)
    grouping = FeatureGrouping.trivial(n)
    x = _random_x(stream, n)
    mu = (1, 0, 0, 1, 0, 0)
    model = SmoothedModel.build(base, grouping, cfg, mu=mu)
    covering = [alpha for alpha in _all_masks(n)
                if all(a >= b for a, b in zip(alpha, mu))]
    assert len(covering) == 16
    assert masking_equivalence_check(model, x, covering)


def test_c04_certified_radii_survive_brute_force():
    """1000 random triples, n <= 10: both oracles confirm both radii."""
    t0 = time.monotonic()
    nonzero = 0
    for trial in range(1000):
        n = 2 + trial % 9
        q = (4, 8)[trial % 2]
        stream = LcgStream(derive_rng_state(907, trial))
        lambda_num = 1 + stream.next_below(q)
        m = 2 + (trial % 3 == 0)
        base = random_linear(n, m, derive_rng_state(908, trial))
        cfg = SmoothingConfig(n=n, q=q, lambda_num=lambda_num, seed=trial)
        model = SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg)
        x = _random_x(stream, n)
        phi = _random_mask(stream, n)
        record = certify_example(model, x, phi, example_id=trial)
        nonzero += record.r_inc > 0 or record.r_dec > 0
        assert brute_force_stability_oracle(model, x, phi, record.r_inc, "inc"), (
            f"trial {trial}: r_inc={record.r_inc} refuted by enumeration"
        )
        assert brute_force_stability_oracle(model, x, phi, record.r_dec, "dec"), (
            f"trial {trial}: r_dec={record.r_dec} refuted by enumeration"
        )
    assert nonzero >= 100  # the sweep must exercise non-trivial radii
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"soundness sweep took {elapsed:.1f}s (budget 300s)"


def test_c05_half_radius_oracles_imply_full_stability():
    """inc+dec holding at ceil((n-k)/2) flips forces the exhaustive check."""
    antecedent = 0
    for trial in range(220):
        n = 4 + trial % 5
        q = 8
        lambda_num = 1 + trial % 4
        stream = LcgStream(derive_rng_state(909, trial))
        base = random_linear(n, 2, derive_rng_state(910, trial))
        cfg = SmoothingConfig(n=n, q=q, lambda_num=lambda_num, seed=trial)
        model = SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg)
        x = _random_x(stream, n)
        phi = _random_mask(stream, n)
        half = (n - sum(phi) + 1) // 2
        inc_ok = brute_force_stability_oracle(model, x, phi, half, "inc")
        dec_ok = brute_force_stability_oracle(model, x, phi, half, "dec")
        if inc_ok and dec_ok:
            antecedent += 1
            assert brute_force_stability_oracle(model, x, phi, n, "inc"), (
                f"trial {trial}: half-radius stability did not compose"
            )
    assert antecedent >= 20


def test_c06_additive_noise_leaks_multiplicative_does_not():
    for n in (1, 4, 9):
        report = additive_leakage_demo(n)
        assert report.additive_lhs > report.additive_rhs + 0.1
        assert abs(report.multiplicative_lhs - report.multiplicative_rhs) <= 1e-12
        assert report.additive_leaks
        assert report.multiplicative_matches


class _CountingBase:
    def __init__(self, d):
        self.d = d
        self.m = 2
        self.calls = 0

    def evaluate(self, z):
        self.calls += 1
        live = sum(1 for v in z if v != 0.0) / (2 * self.d)
        return (0.25 + live, 0.75 - live)


def test_c07_query_count_and_reenumeration_and_sampling():
    # Exactly q base queries per smoothed evaluation.
    for q in (4, 5, 8, 16):
        base = _CountingBase(d=3)
        cfg = SmoothingConfig(n=3, q=q, lambda_num=max(1, q // 2), seed=1)
        model = SmoothedModel.build(base, FeatureGrouping.trivial(3), cfg)
        base.calls = 0
        mus_evaluate(model, (1.0, -1.0, 0.5), (1, 0, 1))
        assert base.calls == q

    # Exact-fraction re-average over the same atoms agrees to 1e-12.
    for trial in range(10):
        n = 2 + trial % 4
        q = Q_CHOICES[trial % 3]
        stream = LcgStream(derive_rng_state(911, trial))
        lambda_num = 1 + stream.next_below(q)
        base = random_linear(n, 2, derive_rng_state(912, trial))
        cfg = SmoothingConfig(n=n, q=q, lambda_num=lambda_num, seed=trial)
        grouping = FeatureGrouping.trivial(n)
        model = SmoothedModel.build(base, grouping, cfg)
        x = _random_x(stream, n)
        alpha = _random_mask(stream, n)
        got = mus_evaluate(model, x, alpha)
        totals = [Fraction(0), Fraction(0)]
        for atom in enumerate_atoms(cfg).atoms:
            p = base.evaluate(mask_apply(x, mask_and(alpha, atom), grouping))
            for c in range(2):
                totals[c] += Fraction(p[c])
        for c in range(2):
            assert abs(got[c] - float(totals[c] / q)) <= 1e-12

    # 20000-draw Monte Carlo sits within 0.02 of the exact iid expectation.
    n, q, lambda_num = 4, 8, 3
    base = random_linear(n, 2, derive_rng_state(913, 0))
    grouping = FeatureGrouping.trivial(n)
    x = (0.9, -1.4, 0.6, 1.8)
    alpha = (1, 0, 1, 1)
    lam_exact = Fraction(lambda_num, q)
    expectation = [Fraction(0), Fraction(0)]
    for z in _all_masks(n):
        weight = Fraction(1)
        for bit in z:
            weight *= lam_exact if bit else 1 - lam_exact
        p = base.evaluate(mask_apply(x, mask_and(alpha, z), grouping))
        for c in range(2):
            expectation[c] += weight * Fraction(p[c])
    sampled = rmus_estimate(base, grouping, x, alpha, lambda_num / q,
                            samples=20000, rng_state=5)
    for c in range(2):
        assert abs(sampled[c] - float(expectation[c])) <= 0.02


def test_c08_full_keep_rate_recovers_the_base_classifier():
    checked = 0
    for q in (4, 6, 8, 16):
        for trial in range(25):
            n = 2 + trial % 5
            stream = LcgStream(derive_rng_state(914, 100 * q + trial))
            base = random_linear(n, 3, derive_rng_state(915, 100 * q + trial))
            cfg = SmoothingConfig(n=n, q=q, lambda_num=q, seed=trial)
            model = SmoothedModel.build(base, FeatureGrouping.trivial(n), cfg)
            x = _random_x(stream, n)
            direct = base.evaluate(x)
            smoothed = smoothed_predict(model, x)
            for c in range(3):
                assert abs(smoothed[c] - direct[c]) <= 1e-15
            checked += 1
    assert checked == 100


def test_c09_attack_never_beats_a_certificate(desk, tmp_path):
    out = tmp_path / "attack.ndjson"
    code = main([
        "attack",
        "--model", desk["model_path"],
        "--data", desk["test_path"],
        "--out", str(out),
        "--q", "16", "--lambda-num", "4",
        "--topk", "8", "--budget", "6",
    ])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in open(out, encoding="utf-8")]
    summary = rows.pop()
    assert summary["verdict"] == "PASS"
    assert summary["violations"] == 0
    assert summary["examples"] == 200
    assert all(row["sound"] for row in rows)


class _AffineInMask:
    """Class-0 probability exactly offset + sum of weights over live groups."""

    def __init__(self, offset, weights):
        self.offset = offset
        self.weights = tuple(weights)
        self.d = len(self.weights)
        self.m = 2

    def evaluate(self, z):
        p0 = self.offset + math.fsum(
            w for w, v in zip(self.weights, z) if v != 0.0
        )
        return (p0, 1.0 - p0)


def test_c10_scorer_oracles():
    # Shapley efficiency under full permutation enumeration, n = 4.
    for trial in range(10):
        n = 4
        base = random_linear(n, 3, derive_rng_state(916, trial))
        grouping = FeatureGrouping.trivial(n)
        stream = LcgStream(derive_rng_state(917, trial))
        x = _random_x(stream, n)
        c, _ = top_class_and_gap(base.evaluate(x))
        sv = shap_lite_scores(base, x, grouping, exhaustive=True)
        total = base.evaluate(x)[c] - base.evaluate((0.0,) * n)[c]
        assert abs(math.fsum(sv.scores) - total) <= 1e-10

    # A surrogate fit on an exactly-linear-in-mask target returns its
    # coefficients.
    handle = _AffineInMask(0.5, (0.125, 0.0625, 0.03125, 0.015625))
    grouping = FeatureGrouping.trivial(4)
    sv = lime_lite_scores(handle, (1.0, 1.0, 1.0, 1.0), grouping,
                          samples=256, kernel_width=4.0, rng_state=2)
    for got, want in zip(sv.scores, handle.weights):
        assert abs(got - want) <= 1e-6

    # Analytic gradients against central finite differences.
    h = 1e-4
    for trial in range(10):
        linear = random_linear(4, 3, derive_rng_state(918, trial))
        mlp = random_mlp(4, 5, 3, derive_rng_state(919, trial))
        stream = LcgStream(derive_rng_state(920, trial))
        x = _random_x(stream, 4, span=1.0)
        for model in (linear, mlp):
            for c in range(3):
                grad = model.gradient(x, c)
                for j in range(4):
                    up = list(x)
                    down = list(x)
                    up[j] += h
                    down[j] -= h
                    fd = (model.evaluate(up)[c] - model.evaluate(down)[c]) / (2 * h)
                    assert abs(grad[j] - fd) <= 1e-5


def _read_curves(path):
    curves = {"inc": {}, "dec": {}}
    for line in open(path, encoding="utf-8"):
        mode, r, value = line.split()
        curves[mode][int(r)] = float(value)
    return curves


def _non_increasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


def test_c11_desk_scale_pipeline(desk, tmp_path):
    t0 = time.monotonic()
    flags = ["--model", desk["model_path"], "--data", desk["test_path"],
             "--q", "16"]

    for lambda_num in (2, 4, 8):
        out = tmp_path / f"certify-{lambda_num}.ndjson"
        code = main(["certify", *flags, "--lambda-num", str(lambda_num),
                     "--out", str(out), "--topk", "8"])
        assert code == EXIT_OK
        assert len([1 for _ in open(out, encoding="utf-8")]) == 200
        curves = _read_curves(str(out) + ".curves")
        for mode in ("inc", "dec"):
            values = [curves[mode][r] for r in range(17)]
            assert len(values) == 17
            assert _non_increasing(values)

    # Shielding the kept groups makes decremental radii >= 1 reachable at
    # the smallest keep rate.
    out = tmp_path / "certify-shielded.ndjson"
    code = main(["certify", *flags, "--lambda-num", "2", "--out", str(out),
                 "--topk", "8", "--mu-mode", "phi"])
    assert code == EXIT_OK
    shielded = _read_curves(str(out) + ".curves")
    assert shielded["dec"][1] > 0.0
    assert _non_increasing([shielded["dec"][r] for r in range(17)])

    acc_out = tmp_path / "accuracy.txt"
    code = main(["accuracy-curve", *flags, "--lambda-num", "4",
                 "--out", str(acc_out)])
    assert code == EXIT_OK
    acc_values = [float(line.split()[1])
                  for line in open(acc_out, encoding="utf-8")]
    assert len(acc_values) == 17
    assert _non_increasing(acc_values)

    means = {}
    for scorer in ("occlusion", "vgrad", "lime", "shap"):
        out = tmp_path / f"explain-{scorer}.ndjson"
        code = main(["explain", *flags, "--lambda-num", "4",
                     "--out", str(out), "--scorer", scorer])
        assert code == EXIT_OK
        rows = [json.loads(line) for line in open(out, encoding="utf-8")]
        summary = rows[-1]
        assert summary["summary"] is True
        assert summary["scorer"] == scorer
        means[scorer] = summary["mean_k_x"]
        assert 0.0 <= means[scorer] <= 1.0
    assert len(means) == 4

    elapsed = time.monotonic() - t0 + desk["build_seconds"]
    assert elapsed < 120.0, f"desk pipeline took {elapsed:.1f}s (budget 120s)"


def test_c12_outputs_are_byte_identical_across_workers(small_artifacts, tmp_path):
    def run(tag, workers):
        out = tmp_path / f"{tag}.ndjson"
        argv = ["certify",
                "--model", small_artifacts["model_path"],
                "--data", small_artifacts["data_path"],
                "--out", str(out),
                "--q", "8", "--lambda-num", "2",
                "--scorer", "lime", "--topk", "3",
                "--workers", str(workers)]
        assert main(argv) == EXIT_OK
        return out.read_bytes(), (tmp_path / f"{tag}.ndjson.curves").read_bytes()

    first = run("serial-a", 1)
    second = run("serial-b", 1)
    third = run("threaded", 4)
    assert first == second
    assert first == third

    def run_explain(tag, workers):
        out = tmp_path / f"{tag}-explain.ndjson"
        argv = ["explain",
                "--model", small_artifacts["model_path"],
                "--data", small_artifacts["data_path"],
                "--out", str(out),
                "--q", "8", "--lambda-num", "2",
                "--scorer", "shap", "--workers", str(workers)]
        assert main(argv) == EXIT_OK
        return out.read_bytes()

    assert run_explain("w1", 1) == run_explain("w2", 2)
