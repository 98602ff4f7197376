"""Greedy empirical stability search against the smoothed classifier.

Starting from the attribution mask (incremental) or the full mask
(decremental), each step flips the single bit that most reduces the
predicted-class margin, stopping at the first class flip or at the budget.
A found witness gives an upper bound on the true empirical stability
radius, to be compared against the certified one. The steps of one call
share a memo of base outputs, so a masked input that an earlier step sent
to the base classifier is not sent again. The attack command passes its
certificates' classes as the walks' ref_classes, so no reference pass runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    Mask,
    _class_args,
    _int_args,
    mask_array,
    top_classes_and_gaps,
)
from .smoothing import SmoothedModel, _BaseMemo, _checked_examples, _pair_means


@dataclass(frozen=True)
class AttackResult:
    mode: str
    found: bool
    radius: int
    witness: Mask | None


def attack_walks(model: SmoothedModel, xs, examples: Sequence[int], phis: Sequence[Mask],
                 budgets: Sequence[int], modes: Sequence[str],
                 ref_classes: Sequence[int] | None = None) -> list[AttackResult]:
    """Greedy attacks on many examples in lockstep, one per walk w: example
    examples[w] of the (E, d) inputs xs, attribution mask phis[w], budget
    budgets[w] and mode modes[w] ("inc" or "dec").

    Walk w must leave class ref_classes[w], its class at its start mask (a
    certificate's masked_class for an inc walk, pred_class for dec); when
    ref_classes is None, a reference pass smooths each start mask for it.
    Each step then scores the candidates of every unfinished walk in one
    more pass of the mus_evaluate_pairs driver. The passes share one memo of
    base outputs, dropped on return, so each distinct masked input of an
    example goes to the base classifier once per call, however many steps
    reach it. No walk's result depends on the others.
    """
    n = model.grouping.n
    phis = mask_array(phis, n)
    if not len(examples) == len(phis) == len(budgets) == len(modes):
        raise ConfigError(
            f"need one example, mask, budget and mode per walk, got {len(examples)}, "
            f"{len(phis)}, {len(budgets)} and {len(modes)}"
        )
    mode_of = np.fromiter(modes, dtype=object, count=len(modes))
    inc = mode_of == "inc"
    if not (valid := inc | (mode_of == "dec")).all():
        raise ConfigError(f"mode must be 'inc' or 'dec', got {mode_of[~valid][0]!r}")
    free = n - phis.sum(axis=1, dtype=np.intp)
    budgets = _int_args("budget", budgets)
    if (outside := (budgets < 0) | (budgets > free)).any():
        w = outside.argmax()
        raise ConfigError(f"budget {budgets[w]} outside [0, {free[w]}] free bits for this mask")
    xs, examples = _checked_examples(model, xs, examples, len(modes))
    memo = _BaseMemo()
    flip_to = inc.astype(np.uint8)
    alphas = np.where(inc[:, None], phis, np.uint8(1))
    ref_class = (top_classes_and_gaps(_pair_means(model, xs, examples, alphas, None, memo))[0]
                 if ref_classes is None else _class_args(ref_classes, len(modes), model.m))
    # A walk ends at its first flip (found, radius = step) or at its budget.
    radius = np.array(budgets, dtype=np.intp)
    found = np.zeros(len(modes), dtype=bool)
    live = np.flatnonzero(radius > 0)
    step = 0
    while len(live):
        step += 1
        # Candidate bits of every live walk: off bits (inc) or on bits
        # outside phi (dec), walk by walk in index order.
        state = alphas[live]
        candidates = np.where(inc[live, None], state == 0, (state == 1) & (phis[live] == 0))
        walk, bit = np.nonzero(candidates)
        masks = state[walk]
        masks[np.arange(len(walk)), bit] = flip_to[live][walk]
        means = _pair_means(model, xs, examples[live][walk], masks, None, memo)
        refs = ref_class[live][walk]
        # The margin is the reference mean less the best other mean: the gap
        # where the reference still leads, else the distance to the leader.
        top, gap = top_classes_and_gaps(means)
        rows = np.arange(len(walk))
        margins = np.where(top == refs, gap, means[rows, refs] - means[rows, top])
        # The first smallest margin: ties go to the lowest bit.
        grid = np.full((len(live), n), np.inf)
        grid[walk, bit] = margins
        chosen = grid.argmin(axis=1)
        flipped = np.zeros((len(live), n), dtype=bool)
        flipped[walk, bit] = top != refs
        alphas[live, chosen] = flip_to[live]
        hit = flipped[np.arange(len(live)), chosen]
        found[live[hit]] = True
        radius[live[hit]] = step
        live = live[~hit & (step < radius[live])]
    return [AttackResult(mode=mode, found=hit, radius=r, witness=tuple(alpha) if hit else None)
            for mode, hit, r, alpha in zip(modes, found.tolist(), radius.tolist(),
                                           alphas.tolist())]
