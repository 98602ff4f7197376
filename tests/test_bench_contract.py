"""The package surface: its top-level names, and what the benchmark under
bench/ relies on.

bench/tracer.py wraps every public package function, the classifier methods
and the CLI's per-example map for a traced run; bench/workloads.py calls
package functions to re-check each command's output and passes CLI flags. A
change that removes or renames one of those names fails here, not only in a
benchmark run.
"""
from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import muscert
from muscert import cli
from muscert.attack import AttackResult
from muscert.certify import CertRecord

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name: str):
    """Import bench/<name>.py under a private module name."""
    qualified = f"_bench_{name}"
    spec = importlib.util.spec_from_file_location(qualified, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[qualified]
    return module


def _dotted(node: ast.AST) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


# The dataset stages are the API; only the one-example calls that the
# benchmark and the README quickstart use sit beside them.
PUBLIC_NAMES = {
    "AttackResult", "CertRecord", "ClassifierHandle", "ConfigError", "DataError",
    "FeatureGrouping", "LabeledDataset", "LcgStream", "LinearSoftmaxModel", "MlpModel",
    "MuscertError", "SelfcheckReport", "SmoothedModel", "SmoothingConfig", "SuiteResult",
    "VerificationError", "attack_walks", "brute_force_stability_oracle", "certify_example",
    "derive_rng_state", "enumerate_atoms", "enumerate_perturbation_masks", "fit_logistic",
    "gradient_score_rows", "greedy_stable_masks", "lime_score_rows", "load_csv_dataset",
    "load_grouping", "load_model", "mus_evaluate_pairs",
    "occlusion_scores", "ones_mask", "random_linear",
    "random_mlp", "run_selfcheck", "save_csv_dataset", "save_model", "shap_score_rows",
    "synth_blobs", "topk_binarize",
}


def test_public_top_level_names_are_pinned():
    names = {name for name, obj in vars(muscert).items()
             if not name.startswith("_") and not inspect.ismodule(obj)}
    assert names == PUBLIC_NAMES


def test_tracer_install_patches_and_uninstall_restores():
    tracer_module = _load_bench("tracer")
    owners = [importlib.import_module(f"muscert.{layer}") for layer in tracer_module.LAYERS]
    owners.append(muscert)
    owners += [getattr(muscert.models, cls) for cls, _ in tracer_module.MODEL_METHODS]
    before = [dict(vars(owner)) for owner in owners]
    originals = (muscert.certify_example, cli._map_examples, muscert.MlpModel.evaluate)
    tracer = tracer_module.Tracer()
    tracer.install(commands=True)
    try:
        patched = (muscert.certify_example, cli._map_examples, muscert.MlpModel.evaluate)
        assert all(now is not was for now, was in zip(patched, originals))
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys(), owner
        assert all(now[attr] is value for attr, value in saved.items()), owner


def test_package_names_the_bench_reads_resolve():
    imported = set()
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        roots = {"muscert"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "muscert":
                roots.update(alias.asname or alias.name for alias in node.names)
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in roots:
                chains.add(tuple(chain))
        imported |= roots
    assert {"attribution", "certify", "cli"} <= imported
    assert ("certify", "brute_force_stability_oracle") in chains
    for root, *attrs in sorted(chains):
        obj = getattr(muscert, root) if root != "muscert" else muscert
        for attr in attrs:
            assert hasattr(obj, attr), ".".join([root, *attrs])
            obj = getattr(obj, attr)
    # Result fields the output checks and the tracer's counters read.
    fields = {f.name for f in dataclasses.fields(CertRecord)}
    assert {"r_inc", "r_dec", "consistent"} <= fields and hasattr(CertRecord, "to_json_dict")
    assert "found" in {f.name for f in dataclasses.fields(AttackResult)}


def test_workload_flags_parse():
    workloads = _load_bench("workloads")
    ctx = workloads.Context(seed=11, workdir=Path("desk"))
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    seen = set()
    for workload in workloads.WORKLOADS.values():
        for inv in workload.plan(ctx):
            parser.parse_args(list(inv.argv))
            # Whole flag names: argparse would also take a prefix of a renamed flag.
            options = commands[inv.argv[0]]._option_string_actions
            assert [a for a in inv.argv if a.startswith("--") and a not in options] == []
            seen.add(inv.argv[0])
    assert seen == {"certify", "accuracy-curve", "explain", "attack", "selfcheck"}


def test_selfcheck_prints_the_lines_the_bench_parses(capsys):
    """The suites, in order, are the bench's SELFCHECK_SUITES, and the
    bench's own selfcheck invocation prints one line per suite and the pass
    line, which its check reads as a pass with no failing unit."""
    workloads = _load_bench("workloads")
    report = muscert.run_selfcheck(max_n=2, trials=1)
    assert tuple(suite.name for suite in report.suites) == workloads.SELFCHECK_SUITES
    ctx = workloads.Context(seed=11, workdir=Path("desk"))
    [inv] = workloads.selfcheck_small(ctx)
    assert cli.main(list(inv.argv)) == 0
    stdout = capsys.readouterr().out
    trials = workloads.SELFCHECK_TRIALS
    assert stdout == "".join(f"{suite}: {trials} trials, 0 failures\n"
                             for suite in workloads.SELFCHECK_SUITES) + (
        "selfcheck: all suites passed\n")
    assert inv.units == trials and inv.check(inv, ctx, stdout) == {}
