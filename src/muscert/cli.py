"""Command-line front end: certify, accuracy-curve, explain, attack, selfcheck.

Every command is a pure function of its flags: randomness flows from
--seed, per-example streams are derived from the example index, and
records are buffered and written in input order, so output files are
byte-identical regardless of --workers.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable, Sequence

from .attack import attack_decremental, attack_incremental
from .attribution import (
    DEFAULT_LIME_SAMPLES,
    DEFAULT_SHAP_PERMUTATIONS,
    ScoreVector,
    greedy_stable_attribution,
    lime_lite_scores,
    occlusion_scores,
    shap_lite_scores,
    topk_binarize,
)
from .attribution import gradient_scores as vanilla_gradient_scores
from .certify import CertRecord, certify_example, radius_from_gap
from .core import (
    DataError,
    FeatureGrouping,
    Mask,
    MuscertError,
    ParseError,
    VerificationError,
    popcount,
    top_class_and_gap,
)
from .data import load_csv_dataset, load_grouping
from .models import load_model
from .noise import SmoothingConfig, derive_rng_state
from .selfcheck import run_selfcheck
from .smoothing import SmoothedModel, smoothed_predict

SCORERS = ("occlusion", "vgrad", "lime", "shap")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFICATION = 3


class _UsageError(MuscertError):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


def _default_workers() -> int:
    raw = os.environ.get("MUSCERT_WORKERS", "1")
    try:
        return int(raw)
    except ValueError as exc:
        raise _UsageError(f"MUSCERT_WORKERS must be an integer, got {raw!r}") from exc


def _map_examples(fn: Callable, items: Sequence, workers: int) -> list:
    """Apply fn over items preserving input order, optionally threaded."""
    if workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {workers}")
    if workers == 1:
        return [fn(item) for item in items]
    # Imported here because the pool's modules, logging among them, add
    # about 1 MB of resident memory that serial runs never use.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _load_common(args) -> tuple:
    model = load_model(args.model)
    dataset = load_csv_dataset(args.data)
    if dataset.d != model.d:
        raise DataError(
            f"dataset has d={dataset.d} features but model expects d={model.d}"
        )
    if args.grouping is not None:
        grouping = load_grouping(args.grouping)
        if grouping.d != model.d:
            raise DataError(
                f"grouping covers d={grouping.d} but model expects d={model.d}"
            )
    else:
        grouping = FeatureGrouping.trivial(model.d)
    cfg = SmoothingConfig(q=args.q, lambda_num=args.lambda_num, seed=args.seed,
                          n=grouping.n)
    smoothed = SmoothedModel.build(model, grouping, cfg)
    return model, dataset, grouping, cfg, smoothed


def _compute_scores(scorer: str, smoothed: SmoothedModel, x, args,
                    rng_state: int) -> ScoreVector:
    if scorer == "occlusion":
        return occlusion_scores(smoothed, x)
    if scorer == "vgrad":
        return vanilla_gradient_scores(smoothed.base, x, smoothed.grouping)
    if scorer == "lime":
        return lime_lite_scores(smoothed.base, x, smoothed.grouping,
                                samples=args.lime_samples,
                                kernel_width=args.lime_kernel_width,
                                rng_state=rng_state)
    if scorer == "shap":
        return shap_lite_scores(smoothed.base, x, smoothed.grouping,
                                permutations=args.shap_permutations,
                                rng_state=rng_state)
    raise _UsageError(f"unknown scorer {scorer!r}")


def _attribution_mask(args, smoothed: SmoothedModel, x,
                      rng_state: int) -> tuple[Mask, bool]:
    """Build phi for one example from --topk or greedy radius targets."""
    scores = _compute_scores(args.scorer, smoothed, x, args, rng_state)
    if args.topk is not None:
        return topk_binarize(scores, args.topk), True
    return greedy_stable_attribution(smoothed, x, scores,
                                     args.rinc, args.rdec)


def _require_phi_source(args) -> None:
    has_topk = args.topk is not None
    has_targets = args.rinc is not None or args.rdec is not None
    if has_topk and has_targets:
        raise _UsageError("pass either --topk or --rinc/--rdec, not both")
    if not has_topk and not has_targets:
        raise _UsageError("one of --topk or --rinc/--rdec is required")
    args.rinc = args.rinc or 0
    args.rdec = args.rdec or 0


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _json_line(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _survival_curve(radii_ok: list[tuple[int, bool]], n: int) -> list[float]:
    """value(r) = fraction of examples flagged ok with radius >= r, r = 0..n."""
    total = len(radii_ok)
    return [
        sum(1 for radius, ok in radii_ok if ok and radius >= r) / total
        for r in range(n + 1)
    ]


def cmd_certify(args) -> int:
    _require_phi_source(args)
    _, dataset, grouping, _cfg, smoothed = _load_common(args)
    n = grouping.n

    def one(item) -> CertRecord:
        idx, (x, _label) = item
        phi, _met = _attribution_mask(args, smoothed, x,
                                      derive_rng_state(args.seed, idx))
        cert_model = smoothed.with_mu(phi) if args.mu_mode == "phi" else smoothed
        return certify_example(cert_model, x, phi, example_id=idx)

    records = _map_examples(one, list(enumerate(dataset.examples)), args.workers)
    _write_lines(args.out, (_json_line(r.to_json_dict()) for r in records))
    inc_curve = _survival_curve([(r.r_inc, True) for r in records], n)
    dec_curve = _survival_curve([(r.r_dec, r.consistent) for r in records], n)
    curve_lines = [f"inc {r} {inc_curve[r]!r}" for r in range(n + 1)]
    curve_lines += [f"dec {r} {dec_curve[r]!r}" for r in range(n + 1)]
    _write_lines(args.out + ".curves", curve_lines)
    print(f"certified {len(records)} examples -> {args.out}")
    print(f"inc value(0)={inc_curve[0]!r} dec value(0)={dec_curve[0]!r}")
    return EXIT_OK


def cmd_accuracy_curve(args) -> int:
    _, dataset, grouping, cfg, smoothed = _load_common(args)
    n = grouping.n

    def one(item) -> tuple[int, bool]:
        _idx, (x, label) = item
        pred, gap = top_class_and_gap(smoothed_predict(smoothed, x))
        _, r_dec = radius_from_gap(gap, cfg.lambda_num, cfg.q)
        return r_dec, pred == label

    radii = _map_examples(one, list(enumerate(dataset.examples)), args.workers)
    curve = _survival_curve(radii, n)
    _write_lines(args.out, (f"{r} {curve[r]!r}" for r in range(n + 1)))
    print(f"accuracy curve over {len(radii)} examples -> {args.out}")
    print(f"value(0)={curve[0]!r}")
    return EXIT_OK


def cmd_explain(args) -> int:
    _, dataset, grouping, _cfg, smoothed = _load_common(args)
    n = grouping.n

    def one(item) -> dict:
        idx, (x, _label) = item
        rng = derive_rng_state(args.seed, idx)
        scores = _compute_scores(args.scorer, smoothed, x, args, rng)
        mask, met = greedy_stable_attribution(smoothed, x, scores,
                                              args.rinc, args.rdec)
        return {
            "example_id": idx,
            "scorer": args.scorer,
            "mask": list(mask),
            "k_x": popcount(mask) / n,
            "met": met,
        }

    rows = _map_examples(one, list(enumerate(dataset.examples)), args.workers)
    mean_k = sum(row["k_x"] for row in rows) / len(rows)
    summary = {
        "summary": True,
        "scorer": args.scorer,
        "examples": len(rows),
        "mean_k_x": mean_k,
        "not_met": sum(1 for row in rows if not row["met"]),
    }
    lines = [_json_line(row) for row in rows] + [_json_line(summary)]
    _write_lines(args.out, lines)
    print(f"explained {len(rows)} examples -> {args.out}")
    print(f"scorer={args.scorer} mean_k_x={mean_k!r}")
    return EXIT_OK


def cmd_attack(args) -> int:
    _require_phi_source(args)
    _, dataset, grouping, _cfg, smoothed = _load_common(args)
    n = grouping.n

    def one(item) -> dict:
        idx, (x, _label) = item
        phi, _met = _attribution_mask(args, smoothed, x,
                                      derive_rng_state(args.seed, idx))
        record = certify_example(smoothed, x, phi, example_id=idx)
        free = n - popcount(phi)
        budget = free if args.budget is None else min(args.budget, free)
        inc = attack_incremental(smoothed, x, phi, budget)
        dec = attack_decremental(smoothed, x, phi, budget)
        inc_sound = (not inc.found) or inc.radius > record.r_inc
        dec_sound = (not dec.found) or dec.radius > record.r_dec
        return {
            "example_id": idx,
            "r_inc": record.r_inc,
            "inc_found": inc.found,
            "inc_radius": inc.radius,
            "r_dec": record.r_dec,
            "dec_found": dec.found,
            "dec_radius": dec.radius,
            "budget": budget,
            "sound": inc_sound and dec_sound,
        }

    rows = _map_examples(one, list(enumerate(dataset.examples)), args.workers)
    violations = sum(1 for row in rows if not row["sound"])
    verdict = "PASS" if violations == 0 else "FAIL"
    summary = {
        "summary": True,
        "examples": len(rows),
        "violations": violations,
        "verdict": verdict,
    }
    lines = [_json_line(row) for row in rows] + [_json_line(summary)]
    _write_lines(args.out, lines)
    print(f"attacked {len(rows)} examples -> {args.out}")
    print(f"soundness verdict: {verdict}")
    if violations:
        raise VerificationError(
            f"{violations} examples have a witness within the certified radius"
        )
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    if args.q is not None or args.lambda_num is not None:
        if args.q is None or args.lambda_num is None:
            raise _UsageError("--q and --lambda-num must be given together")
        # Validates the grid before any suite runs; off-grid pairs abort here.
        SmoothingConfig(q=args.q, lambda_num=args.lambda_num, seed=args.seed, n=2)
    report = run_selfcheck(max_n=args.max_n, trials=args.trials, seed=args.seed)
    for suite in report.suites:
        line = f"{suite.name}: {suite.trials} trials, {suite.failures} failures"
        if suite.first_failure_seed is not None:
            line += f" (first failing seed {suite.first_failure_seed})"
        print(line)
    if not report.ok:
        raise VerificationError("selfcheck found failing suites")
    print("selfcheck: all suites passed")
    return EXIT_OK


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model weights file (JSON)")
    p.add_argument("--data", required=True, help="dataset file (CSV, label last)")
    p.add_argument("--grouping", default=None,
                   help="feature grouping file (JSON); default one group per feature")
    p.add_argument("--out", required=True, help="output records path")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads (default MUSCERT_WORKERS or 1)")


def _add_smoothing_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True,
                   help="number of noise atoms")
    p.add_argument("--lambda-num", type=int, required=True, dest="lambda_num",
                   help="keep-rate numerator; the rate is lambda-num/q")
    p.add_argument("--seed", type=int, default=0, help="base random seed")


def _add_scorer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scorer", choices=SCORERS, default="occlusion")
    p.add_argument("--lime-samples", type=int, default=DEFAULT_LIME_SAMPLES)
    p.add_argument("--lime-kernel-width", type=float, default=None,
                   help="default n/4")
    p.add_argument("--shap-permutations", type=int,
                   default=DEFAULT_SHAP_PERMUTATIONS)


def _add_target_flags(p: argparse.ArgumentParser, required_defaults: bool) -> None:
    if required_defaults:
        p.add_argument("--rinc", type=int, default=0,
                       help="incremental radius target for the greedy mask")
        p.add_argument("--rdec", type=int, default=0,
                       help="decremental radius target for the greedy mask")
    else:
        p.add_argument("--topk", type=int, default=None,
                       help="binarize scores at the k best groups")
        p.add_argument("--rinc", type=int, default=None)
        p.add_argument("--rdec", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="muscert",
                     description="Certified stability for masked explanations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", parents=[], help="certify a dataset and emit curves")
    _add_io_flags(p)
    _add_smoothing_flags(p)
    _add_scorer_flags(p)
    _add_target_flags(p, required_defaults=False)
    p.add_argument("--mu-mode", choices=("none", "phi"), default="none",
                   dest="mu_mode",
                   help="exempt the attribution mask from noise when certifying")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("accuracy-curve", help="certified accuracy vs radius")
    _add_io_flags(p)
    _add_smoothing_flags(p)
    p.set_defaults(func=cmd_accuracy_curve)

    p = sub.add_parser("explain", help="greedy stable masks and their sizes")
    _add_io_flags(p)
    _add_smoothing_flags(p)
    _add_scorer_flags(p)
    _add_target_flags(p, required_defaults=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("attack", help="empirical radii vs certificates")
    _add_io_flags(p)
    _add_smoothing_flags(p)
    _add_scorer_flags(p)
    _add_target_flags(p, required_defaults=False)
    p.add_argument("--budget", type=int, default=None,
                   help="max greedy flips per example (default: all free bits)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("selfcheck", help="run the built-in oracle suites")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=int, default=None,
                   help="optional: validate this atom count before running")
    p.add_argument("--lambda-num", type=int, default=None, dest="lambda_num",
                   help="optional: validate this keep-rate numerator")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "workers", None) is None and hasattr(args, "workers"):
            args.workers = _default_workers()
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except MuscertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
