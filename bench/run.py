"""Desk-scale benchmark of the muscert CLI.

    python3 bench/run.py --workload certify-desk --seed 11 --seconds 10 --trace 0

Builds the workload's inputs from --seed through the public API, then
drives the real CLI in-process (`muscert.cli.main(argv)`) pass after pass
until --seconds of command time are spent, repeating the uncached set-up
after each of the first passes. Every output of the first pass
is checked, and every later pass must reproduce its sha256 digests. With
--trace 0 the last stdout line reports the end-to-end metrics, their
times scaled to a reference host speed by bench/hostspeed.py; with
--trace 1 untraced and traced passes alternate and it reports the
per-layer metrics from bench/tracer.py. The line before it is a run record
(machine, commit, argv, digests, tracing overhead). See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGEST_STORE = ROOT / ".bench_results" / "digests.json"
DEFAULT_SEED = 11  # reproduces the desk fixture of tests/conftest.py
SETUPS = 3
# Set-ups that import only (selfcheck-small) take a fraction of a second; they
# repeat until untraced set-ups add up to this, so their median is as steady
# as that of the desk set-ups, which train a model.
MIN_SETUP_S = 2.0
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import muscert"


@dataclass
class Outcome:
    """One invocation in one pass."""

    code: object
    stdout: str
    stderr: str
    wall_s: float
    digests: dict[str, str]
    scaled_s: float | None = None  # wall_s at the reference host speed, untraced runs
    kernel_s: float | None = None  # mean host probe kernel time, untraced runs
    queries: tuple[int, int] | None = None  # (base, distinct), traced passes only


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def import_package():
    """Import muscert from this checkout's src/, never from anywhere else."""
    if not (SRC / "muscert" / "__init__.py").is_file():
        raise SystemExit(f"bench: no muscert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import muscert
    if Path(muscert.__file__).resolve().parent != (SRC / "muscert").resolve():
        raise SystemExit(f"bench: imported muscert from {muscert.__file__}, not {SRC}")
    return muscert


def code_digest() -> str:
    """sha256 over the package and benchmark sources, for the digest store key."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "muscert").glob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def time_import() -> float:
    """Cold start: a fresh interpreter importing the package."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                   check=True, timeout=120)
    return time.perf_counter() - start


def run_invocation(cli, inv, probe) -> Outcome:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(inv.argv))
    except Exception:  # a crash fails this invocation's units, not the run
        code = "exception"
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    scaled = kernel = None
    if probe is not None:
        wall, scaled, kernel = probe.stop(wall)
    digests = file_digests(inv.outputs)
    if not inv.outputs:
        digests["stdout"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return Outcome(code, out.getvalue(), err.getvalue(), wall, digests, scaled, kernel)


def check_first_pass(plan, outcomes, ctx) -> list[dict[int, str]]:
    """Failed units of each invocation, from the full output check."""
    failed = []
    for inv, outcome in zip(plan, outcomes):
        if outcome.code != 0:
            output = (outcome.stdout + outcome.stderr).strip()
            why = f"{inv.label}: exit {outcome.code}: {output[-400:]}"
            failed.append({unit: why for unit in range(inv.units)})
            continue
        try:
            failed.append(inv.check(inv, ctx, outcome.stdout))
        except Exception:  # malformed output fails every unit of the invocation
            why = f"{inv.label}: check raised {traceback.format_exc(limit=2)}"
            failed.append({unit: why for unit in range(inv.units)})
    return failed


def failed_units(plan, outcomes, reference, first_failed) -> int:
    """A later pass fails like the first unless its exit or digests differ."""
    total = 0
    for inv, outcome, ref, bad in zip(plan, outcomes, reference, first_failed):
        if outcome.code != 0 or outcome.digests != ref.digests:
            total += inv.units
        else:
            total += len(bad)
    return total


def compare_with_store(key: str, digests: dict) -> str:
    """Digests of an earlier run of the same code and seed must match."""
    DIGEST_STORE.parent.mkdir(exist_ok=True)
    try:
        store = json.loads(DIGEST_STORE.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        store = {}
    if key in store:
        return "match" if store[key] == digests else "mismatch"
    store[key] = digests
    tmp = DIGEST_STORE.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, DIGEST_STORE)
    return "new"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def file_digests(paths) -> dict[str, str]:
    digests = {}
    for path in map(Path, paths):
        try:
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            digests[path.name] = "missing"
    return digests


def set_up(workloads, workload, ctx, tracer, probe):
    """One uncached set-up: a cold package import, then the workload's inputs.

    Returns the seconds taken, the same at the reference host speed (None
    without a probe), and the digests of the inputs written.
    """
    if probe is not None:
        probe.start()
    elapsed = time_import()
    if tracer is not None:
        tracer.install(commands=False)
    start = time.perf_counter()
    try:
        if workload.desk:
            workloads.build_desk_inputs(ctx.seed, ctx.workdir)
    finally:
        elapsed += time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    scaled = None
    if probe is not None:
        elapsed, scaled, _ = probe.stop(elapsed)
    inputs = ("model.json", "test.csv") if workload.desk else ()
    return elapsed, scaled, file_digests(ctx.workdir / name for name in inputs)


def run_pass(cli, plan, tracer, probe) -> list[Outcome]:
    """Every invocation of the plan once, traced when a tracer is given."""
    if tracer is None:
        return [run_invocation(cli, inv, probe) for inv in plan]
    tracer.install(commands=True)
    try:
        outcomes = []
        for inv in plan:
            tracer.begin_invocation()
            outcome = run_invocation(cli, inv, probe)
            outcome.queries = tracer.end_invocation()
            outcomes.append(outcome)
        return outcomes
    finally:
        tracer.uninstall()


def run(args) -> tuple[dict, dict]:
    muscert = import_package()
    import numpy
    from muscert import cli

    import hostspeed
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(seed=args.seed, workdir=workdir)
        plan = workload.plan(ctx)
        units = sum(inv.units for inv in plan)
        # setup_s is reported untraced only; one traced set-up gives the layers.
        setup_tracer = tracing.Tracer() if args.trace else None
        # The probe's interruptions would land in the traced spans, so traced
        # runs time wall clock alone.
        probe = None if args.trace else hostspeed.SpeedProbe()
        setups_wanted = 1 if args.trace else SETUPS
        setups = [set_up(workloads, workload, ctx, setup_tracer, probe)]
        if workload.desk:
            ctx.load_inputs()

        command_tracer = tracing.Tracer()
        modes = (None, command_tracer) if args.trace else (None,)
        passes: list[tuple[bool, list[Outcome]]] = []
        first_failed = None
        measured = 0.0
        while not passes or measured < args.seconds or len(setups) < setups_wanted:
            for tracer in modes:
                outcomes = run_pass(cli, plan, tracer, probe)
                passes.append((tracer is not None, outcomes))
                measured += sum(o.wall_s for o in outcomes)
                if first_failed is None:
                    first_failed = check_first_pass(plan, outcomes, ctx)
            if len(setups) < setups_wanted:
                # Set-ups between passes rewrite identical inputs; they spread the
                # passes over the whole run.
                setups.append(set_up(workloads, workload, ctx, setup_tracer, probe))
        while not args.trace and sum(seconds for seconds, _, _ in setups) < MIN_SETUP_S:
            setups.append(set_up(workloads, workload, ctx, setup_tracer, probe))

        reference = passes[0][1]
        digests = {f"inputs/{name}": sha for name, sha in setups[0][2].items()}
        digests.update({f"{inv.label}/{name}": sha for inv, o in zip(plan, reference)
                        for name, sha in sorted(o.digests.items())})
        code = code_digest()
        stored = compare_with_store(f"{workload.name}:{args.seed}:{code}", digests)
        deterministic = stored != "mismatch" and all(d == setups[0][2] for _, _, d in setups)
        if deterministic:
            per_pass_failed = [failed_units(plan, outcomes, reference, first_failed)
                               for _, outcomes in passes]
        else:
            per_pass_failed = [units] * len(passes)
        attempted = units * len(passes)
        failed = sum(per_pass_failed)

        def median_pass_wall(traced: bool) -> float:
            return statistics.median(sum(o.wall_s for o in outcomes)
                                     for t, outcomes in passes if t == traced)

        def examples_per_s(seconds) -> float:
            """Units over the sum of each invocation's median over untraced passes."""
            return units / sum(
                statistics.median(seconds(outcomes[i]) for t, outcomes in passes if not t)
                for i in range(len(plan)))

        record = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "muscert": muscert.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "platform": platform.platform(), "git_commit": git_commit(),
            "code_sha256": code, "argv": [["muscert", *inv.argv] for inv in plan],
            "setup_s": [seconds for seconds, _, _ in setups],
            "passes": [{"traced": t, "wall_s": {inv.label: o.wall_s
                                                for inv, o in zip(plan, outcomes)}}
                       for t, outcomes in passes],
            "examples_per_wall_s": examples_per_s(lambda o: o.wall_s),
            "untraced_pass_s": median_pass_wall(False),
            "digests": digests, "digest_store": stored, "deterministic": deterministic,
            "failures": sorted({why for bad in first_failed for why in bad.values()})[:20],
        }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
        if args.trace:
            stats, counts = command_tracer.snapshot()
            setup_stats, _ = setup_tracer.snapshot()
            overhead = median_pass_wall(True) / median_pass_wall(False)
            traced_passes = sum(1 for t, _ in passes if t)
            record["traced_pass_s"] = median_pass_wall(True)
            record["trace_overhead"] = overhead
            first_traced = next(outcomes for t, outcomes in passes if t)
            record["base_queries"] = {
                inv.label: {"calls": o.queries[0], "distinct": o.queries[1]}
                for inv, o in zip(plan, first_traced)}
            record["spans_per_pass"] = {
                name: [calls / traced_passes, total / traced_passes, self_s / traced_passes]
                for name, (calls, total, self_s) in sorted(stats.items())}
            result["metrics"] = tracing.layer_metrics(
                stats, counts, traced_passes, units, workloads.SELFCHECK_SUITES)
            for name in ("models.fit_logistic", "data.synth_blobs", "data.save_csv_dataset"):
                total = setup_stats.get(name, (0, 0.0))[1]
                result["metrics"][f"{name}.total_s"] = tracing.metric(total, "s")
            result["metrics"]["bench.trace_overhead"] = tracing.metric(overhead, "ratio")
        else:
            record["host_probe"] = {
                "reference_s": hostspeed.REFERENCE_S,
                "setup_scaled_s": [scaled for _, scaled, _ in setups],
                "kernel_s": [{inv.label: o.kernel_s for inv, o in zip(plan, outcomes)}
                             for _, outcomes in passes]}
            result["metrics"] = {
                "examples_per_s": tracing.metric(examples_per_s(lambda o: o.scaled_s), "1/s"),
                "setup_s": tracing.metric(
                    statistics.median(scaled for _, scaled, _ in setups), "s"),
                "peak_rss_mb": tracing.metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                # Add-one smoothed so that it is never 0; see bench/README.md.
                "failed_frac": tracing.metric(
                    max((bad + 1) / (units + 1) for bad in per_pass_failed), "frac"),
            }
        return record, result
    finally:
        shutil.rmtree(workdir)


def main(argv=None) -> int:
    args = parse_args(argv)
    record, result = run(args)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
