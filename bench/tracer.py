"""In-process spans around muscert's public functions, for the traced run.

The tracer replaces every public function of each package module, in every
module namespace that holds it, with a wrapper that records one span per
call: calls, total time and self time (total minus the time covered by
child spans on the same thread). Nothing under src/ is edited; the wrappers
are removed again by `uninstall`. Spans are aggregated on the fly per
thread instead of being stored, because a desk pass makes millions of
calls.

A few wrappers also count outcomes: the base-query counter on the
classifier `evaluate` methods (calls and distinct (example, input) pairs),
masks yielded by the brute-force enumeration, greedy masks that met their
targets, and attacks that found a flip. The CLI's per-example map is
wrapped so each example gets its own key for the distinct count, and so
the pool's busy share can be computed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

LAYERS = ("cli", "data", "models", "noise", "core", "smoothing", "certify",
          "attribution", "attack", "selfcheck")

# One LCG step per random bit: wrapping it would multiply the cost of the
# LIME sampler many times over, and no metric asks for it.
UNTRACED = frozenset({"noise.lcg_step"})

# Classifier methods wrapped during commands only, so that the trainer's
# forward passes in set-up are not counted as base queries.
MODEL_METHODS = (("LinearSoftmaxModel", "evaluate"), ("LinearSoftmaxModel", "gradient"),
                 ("MlpModel", "evaluate"), ("MlpModel", "gradient"))


class _ThreadState:
    __slots__ = ("stack", "stats", "counts", "seen", "token")

    def __init__(self, token) -> None:
        self.stack: list[float] = []
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.seen: set = set()
        self.token = token


class Tracer:
    """Aggregated spans and counters; install around the code to trace."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tokens = itertools.count()
        self._invocation = None
        self.distinct_queries = 0
        self._queries = 0

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(self._invocation)
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def begin_invocation(self) -> None:
        """Key base queries outside any per-example call by this invocation."""
        self._invocation = ("invocation", next(self._tokens))
        self._state().token = self._invocation

    def end_invocation(self) -> tuple[int, int]:
        """Fold the distinct-input sets into the running count and free them.

        Returns the invocation's base queries and distinct base queries.
        """
        with self._lock:
            distinct = sum(len(state.seen) for state in self._states)
            calls = sum(state.stats.get("models.evaluate", (0,))[0] for state in self._states)
            for state in self._states:
                state.seen.clear()
        self.distinct_queries += distinct
        calls, self._queries = calls - self._queries, calls
        return calls, distinct

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        get_state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat = state.stats.get(name)
                if stat is None:
                    stat = state.stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - covered
            if observe is not None:
                observe(state, args, result)
            return result

        return traced

    def _counting_generator(self, name: str, fn):
        get_state = self._state

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            state = get_state()
            for item in fn(*args, **kwargs):
                state.counts[name] = state.counts.get(name, 0) + 1
                yield item

        return counted

    def _wrapper_for(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # A span would close before the caller iterates; count yields.
            return self._counting_generator(name + ".yielded", fn)
        observe = None
        if name == "attribution.greedy_stable_attribution":
            observe = _count_if("attribution.greedy.met", lambda result: result[1])
        elif name in ("attack.attack_incremental", "attack.attack_decremental"):
            observe = _count_if("attack.found", lambda result: result.found)
        return self._span(name, fn, observe)

    def _map_wrapper(self, fn):
        """Span per example, keyed for the distinct-query count."""
        get_state = self._state
        tokens = self._tokens
        span_map = self._span("cli.map", fn)

        def traced_map(example_fn, items, workers):
            example_span = self._span("cli.example", example_fn)

            def one(item):
                state = get_state()
                saved = state.token
                state.token = ("example", next(tokens))
                cpu0 = time.thread_time()
                try:
                    return example_span(item)
                finally:
                    cpu = time.thread_time() - cpu0
                    state.counts["cli.example.cpu_s"] = (
                        state.counts.get("cli.example.cpu_s", 0.0) + cpu)
                    state.token = saved

            start = time.perf_counter()
            try:
                return span_map(one, items, workers)
            finally:
                state = get_state()
                state.counts["cli.pool.capacity_s"] = (
                    state.counts.get("cli.pool.capacity_s", 0.0)
                    + (time.perf_counter() - start) * workers)

        return traced_map

    def _evaluate_wrapper(self, fn):
        def observe(state, args, _result):
            state.seen.add((state.token, tuple(args[1])))

        return self._span("models.evaluate", fn, observe)

    # -- install / uninstall ----------------------------------------------

    def install(self, commands: bool) -> None:
        """Wrap every public package function; with commands=True also the
        classifier methods and the CLI's per-example map."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {name: importlib.import_module(f"muscert.{name}") for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                qualified = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__ or qualified in UNTRACED):
                    continue
                wrappers[obj] = self._wrapper_for(qualified, obj)
        namespaces = list(modules.values()) + [importlib.import_module("muscert")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        if commands:
            models = modules["models"]
            for cls_name, method in MODEL_METHODS:
                cls = getattr(models, cls_name)
                original = vars(cls)[method]
                if method == "evaluate":
                    wrapped = self._evaluate_wrapper(original)
                else:
                    wrapped = self._span(f"models.{method}", original)
                self._patch(cls, method, wrapped)
            cli = modules["cli"]
            self._patch(cli, "_map_examples", self._map_wrapper(cli._map_examples))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, list], dict[str, float]]:
        """Merged (stats, counts) over every thread seen so far."""
        stats: dict[str, list] = {}
        counts: dict[str, float] = {}
        with self._lock:
            for state in self._states:
                for name, (calls, total, self_s) in state.stats.items():
                    row = stats.setdefault(name, [0, 0.0, 0.0])
                    row[0] += calls
                    row[1] += total
                    row[2] += self_s
                for name, value in state.counts.items():
                    counts[name] = counts.get(name, 0) + value
        counts["models.evaluate.distinct"] = self.distinct_queries
        return stats, counts


def _count_if(name: str, predicate):
    def observe(state, _args, result):
        if predicate(result):
            state.counts[name] = state.counts.get(name, 0) + 1

    return observe


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(stats, counts, traced_passes: int, units: int, suites) -> dict:
    """Per-layer metrics of the traced command passes, per pass unless stated.

    `units` is the work in one pass; `suites` names the selfcheck suites.
    """

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0] / traced_passes

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1] / traced_passes

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2] / traced_passes

    def count(name):
        return counts.get(name, 0) / traced_passes

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("smoothing.mus_evaluate", "models.evaluate", "models.gradient",
                 "core.validate_logits"):
        out[f"{name}.calls"] = metric(calls(name), "count")
        out[f"{name}.self_s"] = metric(self_s(name), "s")
    out["smoothing.mus_evaluate.total_s"] = metric(total("smoothing.mus_evaluate"), "s")
    mask_ops = ("core.mask_and", "core.mask_or", "core.mask_apply")
    out["core.mask_ops.calls"] = metric(sum(calls(n) for n in mask_ops), "count")
    out["core.mask_ops.self_s"] = metric(sum(self_s(n) for n in mask_ops), "s")
    queries = calls("models.evaluate")
    out["models.queries_per_example"] = metric(queries / units, "count")
    out["models.evaluate.distinct_frac"] = metric(
        ratio(count("models.evaluate.distinct"), queries), "frac")
    for name in ("models.load_model", "data.load_csv_dataset"):
        out[f"{name}.total_s"] = metric(total(name), "s")
    for name in ("noise.enumerate_atoms", "certify.certify_example",
                 "certify.brute_force_stability_oracle", "attribution.occlusion_scores",
                 "attribution.gradient_scores", "attribution.lime_lite_scores",
                 "attribution.shap_lite_scores", "attribution.greedy_stable_attribution"):
        out[f"{name}.calls"] = metric(calls(name), "count")
        out[f"{name}.total_s"] = metric(total(name), "s")
    out["certify.masks_enumerated"] = metric(
        count("certify.enumerate_perturbation_masks.yielded"), "count")
    greedy = calls("attribution.greedy_stable_attribution")
    out["attribution.greedy.prefixes_per_example"] = metric(
        ratio(calls("attribution.prefix_mask"), greedy), "count")
    out["attribution.greedy.met_frac"] = metric(
        ratio(count("attribution.greedy.met"), greedy), "frac")
    attacks = calls("attack.attack_incremental") + calls("attack.attack_decremental")
    for name in ("attack.attack_incremental", "attack.attack_decremental"):
        out[f"{name}.total_s"] = metric(total(name), "s")
    out["attack.found_frac"] = metric(ratio(count("attack.found"), attacks), "frac")
    out["cli.self_s"] = metric(sum(
        row[2] for name, row in stats.items()
        if name.startswith("cli.") and name not in ("cli.map", "cli.example")) / traced_passes,
        "s")
    capacity = counts.get("cli.pool.capacity_s", 0.0)
    out["cli.pool.busy_frac"] = metric(
        ratio(stats.get("cli.example", (0, 0.0))[1], capacity), "frac")
    out["cli.pool.cpu_frac"] = metric(ratio(counts.get("cli.example.cpu_s", 0.0), capacity),
                                      "frac")
    for suite in suites:
        out[f"selfcheck.check_{suite}.total_s"] = metric(total(f"selfcheck.check_{suite}"), "s")
    return out
