"""Greedy empirical stability search against the smoothed classifier.

Starting from the attribution mask (incremental) or the full mask
(decremental), each step flips the single bit that most reduces the
predicted-class margin, stopping at the first class flip or at the budget.
A found witness gives an upper bound on the true empirical stability
radius, to be compared against the certified one. The steps of one call
share a memo of base outputs, so a masked input that an earlier step sent
to the base classifier is not sent again. The attack command takes the
walks' reference classes from its certificates, not from a reference pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    Mask,
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
                 budgets: Sequence[int], modes: Sequence[str]) -> list[AttackResult]:
    """Greedy attacks on many examples in lockstep, one per walk w: example
    examples[w] of the (E, d) inputs xs, attribution mask phis[w], budget
    budgets[w] and mode modes[w] ("inc" or "dec").

    A reference pass smooths each walk's start mask, and each step then
    scores the candidates of every unfinished walk in one more pass of the
    mus_evaluate_pairs driver. The passes share one memo of base outputs,
    dropped on return, so each distinct masked input of an example goes to
    the base classifier once per call, however many steps reach it. No
    walk's result depends on the others.
    """
    return _attack_stage(model, xs, examples, phis, budgets, modes, None)


def _attack_stage(model: SmoothedModel, xs, examples, phis, budgets, modes,
                  ref_classes: Sequence[int] | None) -> list[AttackResult]:
    """attack_walks, with no reference pass when ref_classes gives each walk's class at
    its start mask (a certificate's masked_class for an inc walk, pred_class for dec)."""
    n = model.grouping.n
    phis = mask_array(phis, n)
    if not len(examples) == len(phis) == len(budgets) == len(modes):
        raise ConfigError(
            f"need one example, mask, budget and mode per walk, got {len(examples)}, "
            f"{len(phis)}, {len(budgets)} and {len(modes)}"
        )
    for mode in modes:
        if mode not in ("inc", "dec"):
            raise ConfigError(f"mode must be 'inc' or 'dec', got {mode!r}")
    free = (n - phis.sum(axis=1, dtype=np.intp)).tolist()
    budgets = _int_args("budget", budgets)
    for budget, free_bits in zip(budgets.tolist(), free):
        if budget < 0 or budget > free_bits:
            raise ConfigError(
                f"budget {budget} outside [0, {free_bits}] free bits for this mask"
            )
    xs, examples = _checked_examples(model, xs, examples, len(modes))
    memo = _BaseMemo()
    inc = np.array([mode == "inc" for mode in modes], dtype=bool)
    flip_to = inc.astype(np.uint8)
    alphas = np.where(inc[:, None], phis, np.uint8(1))
    ref_class = (np.array(ref_classes, dtype=np.intp) if ref_classes is not None else
                 top_classes_and_gaps(_pair_means(model, xs, examples, alphas, None, memo))[0])
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
