"""Command-line front end: certify, accuracy-curve, explain, attack, selfcheck.

Every command is a pure function of its flags: randomness flows from
--seed and per-example streams are derived from the example index.
Commands run on one thread as stages over the whole dataset (scores, then
masks, then certificates or attacks) and write examples in input order.
Stages pass on what they smoothed: the occlusion scorer's all-ones means
go to certify (under --mu-mode none), and the certificates' classes at phi
and at all-ones are the attack walks' reference classes. Occlusion and
accuracy-curve smooth masks that every example shares, so they go through
smoothing._grid_means, which finds the distinct effective masks once per
call; per-example masks go through mus_evaluate_pairs.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

import numpy as np

from .attack import _attack_stage
from .attribution import (
    DEFAULT_LIME_SAMPLES,
    DEFAULT_SHAP_PERMUTATIONS,
    _occlusion_stage,
    gradient_score_rows,
    greedy_stable_masks,
    lime_score_rows,
    shap_score_rows,
    topk_mask_rows,
)
from .certify import _certify_stage, radii_from_gaps
from .core import (
    ConfigError,
    DataError,
    FeatureGrouping,
    MuscertError,
    VerificationError,
    _int_arg,
    top_classes_and_gaps,
)
from .data import load_csv_dataset, load_grouping
from .models import load_model
from .noise import SmoothingConfig, derive_rng_state
from .selfcheck import MAX_TRIALS, run_selfcheck
from .smoothing import SmoothedModel, _grid_means

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
        raise DataError(f"dataset has d={dataset.d} features but model expects d={model.d}")
    if args.grouping is None:
        grouping = FeatureGrouping.trivial(model.d)
    elif (grouping := load_grouping(args.grouping)).d != model.d:
        raise DataError(f"grouping covers d={grouping.d} but model expects d={model.d}")
    cfg = SmoothingConfig(q=args.q, lambda_num=args.lambda_num, seed=args.seed,
                          n=grouping.n)
    smoothed = SmoothedModel.build(model, grouping, cfg)
    xs = np.array([x for x, _label in dataset.examples], dtype=float)
    return dataset, xs, grouping, cfg, smoothed


def _score_rows(args, smoothed: SmoothedModel, xs: np.ndarray) -> tuple:
    """(E, n) scores of every example, and occlusion's (E, m) all-ones means or None.

    Occlusion scores the whole dataset in one smoothed pass over the masks
    every example shares (smoothing._grid_means), vgrad in one
    stage over the base classifier, and LIME and SHAP send the masked rows
    of every example to the base classifier in chunks, example e drawing
    from stream derive_rng_state(seed, e).
    """
    base, grouping = smoothed.base, smoothed.grouping
    if args.scorer == "occlusion":
        return _occlusion_stage(smoothed, xs)
    if args.scorer == "vgrad":
        return gradient_score_rows(base, xs, grouping), None
    states = [derive_rng_state(args.seed, idx) for idx in range(len(xs))]
    if args.scorer == "lime":
        return lime_score_rows(base, xs, grouping, args.lime_samples,
                               args.lime_kernel_width, states), None
    return shap_score_rows(base, xs, grouping, args.shap_permutations, states), None


def _attribution_masks(args, smoothed: SmoothedModel, xs: np.ndarray) -> tuple:
    """(phis, ones_means): phi as an (E, n) uint8 array, from --topk or greedy targets."""
    scores, ones_means = _score_rows(args, smoothed, xs)
    if args.topk is not None:
        return topk_mask_rows(scores, args.topk, smoothed.grouping.n), ones_means
    return greedy_stable_masks(smoothed, xs, scores, args.rinc, args.rdec)[0], ones_means


def _require_phi_source(args) -> None:
    has_topk = args.topk is not None
    has_targets = args.rinc is not None or args.rdec is not None
    if has_topk and has_targets:
        raise ConfigError("pass either --topk or --rinc/--rdec, not both")
    if not has_topk and not has_targets:
        raise ConfigError("one of --topk or --rinc/--rdec is required")
    args.rinc = args.rinc or 0
    args.rdec = args.rdec or 0


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_line(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _survival_curves(radii: np.ndarray, ok: np.ndarray, n: int) -> list[list[float]]:
    """value[c][r] = fraction of the examples of row c of the (C, E) arrays
    flagged ok with radius >= r, r = 0..n: one count of the ok examples by
    row and radius (n for any past n), summed from the top."""
    bins = np.minimum(radii, n) + (n + 1) * np.arange(len(radii))[:, None]
    counts = np.bincount(bins[ok], minlength=len(radii) * (n + 1)).reshape(-1, n + 1)
    return (np.cumsum(counts[:, ::-1], axis=1)[:, ::-1] / radii.shape[1]).tolist()


def cmd_certify(args) -> int:
    _require_phi_source(args)
    _dataset, xs, grouping, _cfg, smoothed = _load_common(args)
    n = grouping.n
    phis, ones_means = _attribution_masks(args, smoothed, xs)
    mus, ones_means = (phis, None) if args.mu_mode == "phi" else (None, ones_means)
    certs = _certify_stage(smoothed, xs, phis, range(len(phis)), mus, ones_means)
    _write_lines(args.out, certs.json_lines())
    # r_inc counts every example, r_dec only the consistent ones.
    inc_curve, dec_curve = _survival_curves(np.array([certs.r_inc, certs.r_dec]), np.array(
        [[True] * len(xs), certs.consistent]), n)
    curve_lines = [f"inc {r} {inc_curve[r]!r}" for r in range(n + 1)]
    curve_lines += [f"dec {r} {dec_curve[r]!r}" for r in range(n + 1)]
    _write_lines(args.out + ".curves", curve_lines)
    print(f"certified {len(xs)} examples -> {args.out}")
    print(f"inc value(0)={inc_curve[0]!r} dec value(0)={dec_curve[0]!r}")
    return EXIT_OK


def cmd_accuracy_curve(args) -> int:
    dataset, xs, grouping, cfg, smoothed = _load_common(args)
    n = grouping.n
    preds, gaps = top_classes_and_gaps(
        _grid_means(smoothed, xs, np.ones((1, n), dtype=np.uint8))[:, 0])
    labels = np.array([label for _x, label in dataset.examples])
    curve = _survival_curves(radii_from_gaps(gaps, cfg.lambda_num, cfg.q)[1][None],
                             (preds == labels)[None], n)[0]
    _write_lines(args.out, [f"{r} {curve[r]!r}" for r in range(n + 1)])
    print(f"accuracy curve over {len(xs)} examples -> {args.out}")
    print(f"value(0)={curve[0]!r}")
    return EXIT_OK


def cmd_explain(args) -> int:
    _dataset, xs, grouping, _cfg, smoothed = _load_common(args)
    n = grouping.n
    scores = _score_rows(args, smoothed, xs)[0]
    masks, met = greedy_stable_masks(smoothed, xs, scores, args.rinc, args.rdec)
    k_x = (masks.sum(axis=1) / n).tolist()
    # Summed left to right from 0.0 on every Python (sum() compensates from 3.12 on).
    mean_k = float(np.add.accumulate([0.0, *k_x])[-1]) / len(k_x)
    # Each row as _json_line writes it: json writes a float as its repr.
    row = ('{"example_id":%d,"scorer":' + json.dumps(args.scorer).replace("%", "%%")
           + ',"mask":[' + ",".join(["%d"] * n) + '],"k_x":%r,"met":%s}')
    lines = [*map(row.__mod__, zip(range(len(k_x)), *masks.T.tolist(), k_x,
                                   np.where(met, "true", "false").tolist())),
             _json_line({"summary": True, "scorer": args.scorer, "examples": len(k_x),
                         "mean_k_x": mean_k, "not_met": int((~met).sum())})]
    _write_lines(args.out, lines)
    print(f"explained {len(k_x)} examples -> {args.out}")
    print(f"scorer={args.scorer} mean_k_x={mean_k!r}")
    return EXIT_OK


def cmd_attack(args) -> int:
    _require_phi_source(args)
    _dataset, xs, grouping, _cfg, smoothed = _load_common(args)
    n = grouping.n
    phis, ones_means = _attribution_masks(args, smoothed, xs)
    certs = _certify_stage(smoothed, xs, phis, range(len(phis)), None, ones_means)
    budgets = n - phis.sum(axis=1, dtype=np.intp)
    if args.budget is not None:
        budgets = np.minimum(budgets, min(args.budget, n))  # an int past 2^63 fits no intp
    # The incremental walks of every example, from phi, then the decremental
    # ones, from all-ones: their reference classes are the certificates'.
    walks = _attack_stage(smoothed, xs, np.tile(np.arange(len(phis)), 2), np.tile(phis, (2, 1)),
                          np.tile(budgets, 2), ["inc"] * len(phis) + ["dec"] * len(phis),
                          certs.masked_class + certs.pred_class)
    found = np.array([walk.found for walk in walks], dtype=bool).reshape(2, -1)
    radius = np.array([walk.radius for walk in walks], dtype=np.intp).reshape(2, -1)
    sound = ~(found & (radius <= np.array([certs.r_inc, certs.r_dec]))).any(axis=0)
    violations = int((~sound).sum())
    verdict = "PASS" if violations == 0 else "FAIL"
    summary = {"summary": True, "examples": len(phis), "violations": violations, "verdict": verdict}
    # Each row as _json_line writes it, from Python ints and JSON bools.
    row = ('{"example_id":%d,"r_inc":%d,"inc_found":%s,"inc_radius":%d,"r_dec":%d,'
           '"dec_found":%s,"dec_radius":%d,"budget":%d,"sound":%s}')
    flags = np.where([*found, sound], "true", "false").tolist()
    lines = [*map(row.__mod__, zip(
        certs.example_id, certs.r_inc, flags[0], radius[0].tolist(), certs.r_dec, flags[1],
        radius[1].tolist(), budgets.tolist(), flags[2])), _json_line(summary)]
    _write_lines(args.out, lines)
    print(f"attacked {len(phis)} examples -> {args.out}")
    print(f"soundness verdict: {verdict}")
    if violations:
        raise VerificationError(f"{violations} examples have a witness within the certified radius")
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
    p.add_argument("--max-n", type=int, default=6, dest="max_n",
                   help="2 to 10 (default: 6); instances use at most 6 groups")
    p.add_argument("--trials", type=int, default=20,
                   help=f"random instances to check, 1 to {MAX_TRIALS} (default: 20)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _int_arg("--workers", getattr(args, "workers", 1), 1)
        for flag in ("rinc", "rdec", "budget"):
            if (value := getattr(args, flag, None)) is not None:
                _int_arg(f"--{flag}", value, 0)
        return args.func(args)
    except (MuscertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_USAGE if isinstance(exc, ConfigError) else
                EXIT_VERIFICATION if isinstance(exc, VerificationError) else EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
