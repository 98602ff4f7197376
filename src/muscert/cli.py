"""Command-line front end: certify, accuracy-curve, explain, attack, selfcheck.

Every command is a pure function of its flags: randomness flows from
--seed and per-example streams are derived from the example index.
Commands run on one thread as stages over the whole dataset (scores, then
masks, then certificates or attacks) and write examples in input order.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

from .attack import attack_walks
from .attribution import (
    DEFAULT_LIME_SAMPLES,
    DEFAULT_SHAP_PERMUTATIONS,
    gradient_score_rows,
    greedy_stable_masks,
    lime_score_rows,
    occlusion_score_rows,
    shap_score_rows,
    topk_binarize,
)
from .certify import certify_examples, radius_from_gap
from .core import (
    ConfigError,
    DataError,
    FeatureGrouping,
    Mask,
    VerificationError,
    popcount,
    top_classes_and_gaps,
)
from .data import load_csv_dataset, load_grouping
from .models import load_model
from .noise import SmoothingConfig, derive_rng_state
from .selfcheck import run_selfcheck
from .smoothing import SmoothedModel, mus_evaluate_pairs

SCORERS = ("occlusion", "vgrad", "lime", "shap")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise ConfigError(f"{self.prog}: {message}")


def _map_examples(fn: Callable, items: Sequence, workers: int) -> list:
    """Apply fn over items in input order, on this thread.

    No command calls it, and workers is unused (main checks --workers). It
    stays only because bench/tracer.py wraps it, until the bench stops
    doing so.
    """
    return [fn(item) for item in items]


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
    xs = np.array([x for x, _label in dataset.examples], dtype=float)
    return dataset, xs, grouping, cfg, smoothed


def _score_rows(args, smoothed: SmoothedModel, xs: np.ndarray) -> list:
    """Scores of every example, one list per example.

    Occlusion scores the whole dataset in one smoothed pass, vgrad in one
    stage over the base classifier, and LIME and SHAP send the masked rows
    of every example to the base classifier in chunks, example e drawing
    from stream derive_rng_state(seed, e).
    """
    base, grouping = smoothed.base, smoothed.grouping
    if args.scorer == "occlusion":
        return occlusion_score_rows(smoothed, xs).tolist()
    if args.scorer == "vgrad":
        return gradient_score_rows(base, xs, grouping).tolist()
    states = [derive_rng_state(args.seed, idx) for idx in range(len(xs))]
    if args.scorer == "lime":
        return lime_score_rows(base, xs, grouping, args.lime_samples,
                               args.lime_kernel_width, states).tolist()
    return shap_score_rows(base, xs, grouping, args.shap_permutations, states).tolist()


def _attribution_masks(args, smoothed: SmoothedModel, xs: np.ndarray) -> list[Mask]:
    """phi for every example, from --topk or greedy radius targets."""
    scores = _score_rows(args, smoothed, xs)
    if args.topk is not None:
        return [topk_binarize(row, args.topk) for row in scores]
    return [mask for mask, _met in
            greedy_stable_masks(smoothed, xs, scores, args.rinc, args.rdec)]


def _require_phi_source(args) -> None:
    has_topk = args.topk is not None
    has_targets = args.rinc is not None or args.rdec is not None
    if has_topk and has_targets:
        raise ConfigError("pass either --topk or --rinc/--rdec, not both")
    if not has_topk and not has_targets:
        raise ConfigError("one of --topk or --rinc/--rdec is required")
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
    _dataset, xs, grouping, _cfg, smoothed = _load_common(args)
    n = grouping.n
    phis = _attribution_masks(args, smoothed, xs)
    records = certify_examples(smoothed, xs, phis, range(len(phis)),
                               mus=phis if args.mu_mode == "phi" else None)
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
    dataset, xs, grouping, cfg, smoothed = _load_common(args)
    n = grouping.n
    ones = np.ones((len(xs), n), dtype=np.uint8)
    preds, gaps = top_classes_and_gaps(
        mus_evaluate_pairs(smoothed, xs, np.arange(len(xs)), ones))
    radii = [(radius_from_gap(gap, cfg.lambda_num, cfg.q)[1], pred == label)
             for pred, gap, (_x, label) in zip(preds.tolist(), gaps.tolist(),
                                               dataset.examples)]
    curve = _survival_curve(radii, n)
    _write_lines(args.out, (f"{r} {curve[r]!r}" for r in range(n + 1)))
    print(f"accuracy curve over {len(radii)} examples -> {args.out}")
    print(f"value(0)={curve[0]!r}")
    return EXIT_OK


def cmd_explain(args) -> int:
    _dataset, xs, grouping, _cfg, smoothed = _load_common(args)
    n = grouping.n
    scores = _score_rows(args, smoothed, xs)
    masks = greedy_stable_masks(smoothed, xs, scores, args.rinc, args.rdec)
    rows = [{
        "example_id": idx,
        "scorer": args.scorer,
        "mask": list(mask),
        "k_x": popcount(mask) / n,
        "met": met,
    } for idx, (mask, met) in enumerate(masks)]
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
    _dataset, xs, grouping, _cfg, smoothed = _load_common(args)
    n = grouping.n
    phis = _attribution_masks(args, smoothed, xs)
    records = certify_examples(smoothed, xs, phis, range(len(phis)))
    budgets = [n - popcount(phi) for phi in phis]
    if args.budget is not None:
        budgets = [min(args.budget, free) for free in budgets]
    # The incremental walks of every example, then the decremental ones.
    walks = attack_walks(smoothed, xs, list(range(len(phis))) * 2, phis * 2,
                         budgets * 2, ["inc"] * len(phis) + ["dec"] * len(phis))
    rows = []
    for record, budget, inc, dec in zip(records, budgets, walks, walks[len(phis):]):
        inc_sound = (not inc.found) or inc.radius > record.r_inc
        dec_sound = (not dec.found) or dec.radius > record.r_dec
        rows.append({
            "example_id": record.example_id,
            "r_inc": record.r_inc,
            "inc_found": inc.found,
            "inc_radius": inc.radius,
            "r_dec": record.r_dec,
            "dec_found": dec.found,
            "dec_radius": dec.radius,
            "budget": budget,
            "sound": inc_sound and dec_sound,
        })
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
    p.add_argument("--workers", type=int, default=1,
                   help="must be >= 1; has no other effect (examples always "
                        "run on one thread, in input order)")


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
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        for flag in ("rinc", "rdec", "budget"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ConfigError(f"--{flag} must be >= 0, got {value}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
