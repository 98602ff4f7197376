"""Greedy empirical stability search against the smoothed classifier.

Starting from the attribution mask (incremental) or the full mask
(decremental), each step flips the single bit that most reduces the
predicted-class margin, stopping at the first class flip or at the
budget. A found witness gives an upper bound on the true empirical
stability radius, to be compared against the certified one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Mask,
    PreconditionError,
    popcount,
    top_class_and_gap,
    validate_mask,
)
from .smoothing import SmoothedModel, mus_evaluate_many


@dataclass(frozen=True)
class AttackStep:
    """Candidate margins for one greedy step; chosen is the argmin index."""

    candidates: tuple[tuple[int, float], ...]
    chosen_index: int
    chosen_margin: float
    flipped: bool


@dataclass(frozen=True)
class AttackResult:
    mode: str
    found: bool
    radius: int
    witness: Mask | None
    trace: tuple[AttackStep, ...]


def _margin(p: Sequence[float], ref_class: int) -> tuple[float, bool]:
    rival = max(v for c, v in enumerate(p) if c != ref_class)
    top, _ = top_class_and_gap(p)
    return p[ref_class] - rival, top != ref_class


def _greedy(model: SmoothedModel, x: Sequence[float], phi_x: Mask,
            budget: int, mode: str) -> AttackResult:
    n = model.grouping.n
    validate_mask(phi_x, n)
    free = n - popcount(phi_x)
    if budget < 0 or budget > free:
        raise PreconditionError(
            f"budget {budget} outside [0, {free}] free bits for this mask"
        )
    if mode == "inc":
        alpha = list(phi_x)
        flip_to = 1
    else:
        alpha = [1] * n
        flip_to = 0
    ref_class, _ = top_class_and_gap(mus_evaluate_many(model, x, [tuple(alpha)])[0])
    trace: list[AttackStep] = []
    for step in range(1, budget + 1):
        if mode == "inc":
            candidates = [i for i in range(n) if alpha[i] == 0]
        else:
            candidates = [i for i in range(n) if alpha[i] == 1 and phi_x[i] == 0]
        candidate_masks = []
        for i in candidates:
            alpha[i] = flip_to
            candidate_masks.append(tuple(alpha))
            alpha[i] = 1 - flip_to
        scored = []
        flips = {}
        for i, p in zip(candidates, mus_evaluate_many(model, x, candidate_masks)):
            margin, flipped = _margin(p, ref_class)
            scored.append((i, margin))
            flips[i] = flipped
        chosen, chosen_margin = min(scored, key=lambda pair: (pair[1], pair[0]))
        alpha[chosen] = flip_to
        flipped = flips[chosen]
        trace.append(AttackStep(
            candidates=tuple(scored),
            chosen_index=chosen,
            chosen_margin=chosen_margin,
            flipped=flipped,
        ))
        if flipped:
            return AttackResult(mode=mode, found=True, radius=step,
                                witness=tuple(alpha), trace=tuple(trace))
    return AttackResult(mode=mode, found=False, radius=budget, witness=None,
                        trace=tuple(trace))


def attack_incremental(model: SmoothedModel, x: Sequence[float], phi_x: Mask,
                       budget: int) -> AttackResult:
    """Add off-attribution bits one at a time, chasing the smallest margin."""
    return _greedy(model, x, phi_x, budget, "inc")


def attack_decremental(model: SmoothedModel, x: Sequence[float], phi_x: Mask,
                       budget: int) -> AttackResult:
    """Remove non-attribution bits from all-ones, chasing the smallest margin."""
    return _greedy(model, x, phi_x, budget, "dec")
