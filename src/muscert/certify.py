"""Certified stability radii for masked explanations, with brute-force oracles.

The certificate arithmetic turns a smoothed-confidence gap into an integer
number of mask bits that may be flipped without changing the predicted
class. The brute-force oracle re-verifies that claim by enumerating every
qualifying mask, which is what the soundness test suite leans on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator, Literal, Sequence

from .core import (
    Mask,
    ResourceError,
    ones_mask,
    popcount,
    top_class_and_gap,
    validate_mask,
)
from .smoothing import SmoothedModel, mus_evaluate, mus_evaluate_many, smoothed_predict

ENUMERATION_GUARD_BITS = 20
# Masks the brute-force oracle evaluates per batch: enough to amortise the
# per-call cost, few enough that memory stays flat for 2^20 masks.
ORACLE_CHUNK = 1024

Mode = Literal["inc", "dec"]


@dataclass(frozen=True)
class CertRecord:
    """One example's certificate: classes, gaps, and the radii they imply."""

    example_id: int
    pred_class: int
    masked_class: int
    consistent: bool
    gap_at_attr: float
    gap_at_ones: float
    r_inc_real: float
    r_dec_real: float
    r_inc: int
    r_dec: int
    lambda_num: int
    q: int
    seed: int
    mu_mode: str

    def to_json_dict(self) -> dict:
        return {
            "example_id": self.example_id,
            "pred_class": self.pred_class,
            "masked_class": self.masked_class,
            "consistent": self.consistent,
            "gap_at_attr": self.gap_at_attr,
            "gap_at_ones": self.gap_at_ones,
            "r_inc_real": self.r_inc_real,
            "r_dec_real": self.r_dec_real,
            "r_inc": self.r_inc,
            "r_dec": self.r_dec,
            "lambda": self.lambda_num / self.q,
            "lambda_num": self.lambda_num,
            "q": self.q,
            "seed": self.seed,
            "mu_mode": self.mu_mode,
        }


def radius_from_gap(gap: float, lambda_num: int, q: int) -> tuple[float, int]:
    """Turn a confidence gap into (real, floored integer) certified radius.

    Computed as gap * q / (2 * lambda_num) so the division stays exact when
    the gap is a dyadic rational.
    """
    real = gap * q / (2 * lambda_num)
    return real, int(math.floor(real))


def consistency_check(model: SmoothedModel, x: Sequence[float], phi_x: Mask) -> bool:
    """Does masking down to the attribution keep the predicted class?"""
    full_class, _ = top_class_and_gap(smoothed_predict(model, x))
    masked_class, _ = top_class_and_gap(mus_evaluate(model, x, phi_x))
    return full_class == masked_class


def incremental_radius(model: SmoothedModel, x: Sequence[float],
                       phi_x: Mask) -> tuple[float, int]:
    """Certified number of bits that may be ADDED to phi_x without a flip."""
    _, gap = top_class_and_gap(mus_evaluate(model, x, phi_x))
    return radius_from_gap(gap, model.cfg.lambda_num, model.cfg.q)


def decremental_radius(model: SmoothedModel, x: Sequence[float]) -> tuple[float, int]:
    """Certified number of bits that may be REMOVED from all-ones."""
    _, gap = top_class_and_gap(smoothed_predict(model, x))
    return radius_from_gap(gap, model.cfg.lambda_num, model.cfg.q)


def certify_example(model: SmoothedModel, x: Sequence[float], phi_x: Mask,
                    example_id: int) -> CertRecord:
    """Bundle consistency plus both radii into one record."""
    p_ones, p_attr = mus_evaluate_many(model, x, [ones_mask(model.grouping.n), phi_x])
    pred_class, gap_at_ones = top_class_and_gap(p_ones)
    masked_class, gap_at_attr = top_class_and_gap(p_attr)
    cfg = model.cfg
    r_inc_real, r_inc = radius_from_gap(gap_at_attr, cfg.lambda_num, cfg.q)
    r_dec_real, r_dec = radius_from_gap(gap_at_ones, cfg.lambda_num, cfg.q)
    return CertRecord(
        example_id=example_id,
        pred_class=pred_class,
        masked_class=masked_class,
        consistent=pred_class == masked_class,
        gap_at_attr=gap_at_attr,
        gap_at_ones=gap_at_ones,
        r_inc_real=r_inc_real,
        r_dec_real=r_dec_real,
        r_inc=r_inc,
        r_dec=r_dec,
        lambda_num=cfg.lambda_num,
        q=cfg.q,
        seed=cfg.seed,
        mu_mode="none" if model.mu is None else "phi",
    )


def enumerate_perturbation_masks(phi_x: Mask, radius: int, mode: Mode) -> Iterator[Mask]:
    """Masks within `radius` bit flips of the mode's anchor, smallest first.

    inc: supersets of phi_x (anchor phi_x, flips turn bits on).
    dec: submasks of all-ones that still cover phi_x (anchor all-ones,
    flips turn free bits off). Ordered by flip count, then index.
    """
    n = len(phi_x)
    free = [i for i, bit in enumerate(phi_x) if bit == 0]
    anchor = list(phi_x) if mode == "inc" else list(ones_mask(n))
    flip_to = 1 if mode == "inc" else 0
    for size in range(min(radius, len(free)) + 1):
        for chosen in combinations(free, size):
            out = anchor.copy()
            for i in chosen:
                out[i] = flip_to
            yield tuple(out)


def _guard(phi_x: Mask) -> None:
    free_bits = len(phi_x) - popcount(phi_x)
    if free_bits > ENUMERATION_GUARD_BITS:
        raise ResourceError(
            f"{free_bits} free bits exceeds the enumeration guard of "
            f"{ENUMERATION_GUARD_BITS}"
        )


def brute_force_stability_oracle(model: SmoothedModel, x: Sequence[float],
                                 phi_x: Mask, radius: int, mode: Mode) -> bool:
    """Definitional re-check of a certified radius by mask enumeration.

    inc compares every enumerated mask's class against the class at phi_x;
    dec compares against the class at all-ones. True iff nothing flips.
    Masks are evaluated in chunks of ORACLE_CHUNK, stopping after the chunk
    holding the first flip.
    """
    validate_mask(phi_x, model.grouping.n)
    _guard(phi_x)
    if mode == "inc":
        anchor = phi_x
    elif mode == "dec":
        anchor = ones_mask(len(phi_x))
    else:
        raise ValueError(f"mode must be 'inc' or 'dec', got {mode!r}")
    ref_class, _ = top_class_and_gap(mus_evaluate_many(model, x, [anchor])[0])
    masks = enumerate_perturbation_masks(phi_x, radius, mode)
    while chunk := list(islice(masks, ORACLE_CHUNK)):
        for p in mus_evaluate_many(model, x, chunk):
            if top_class_and_gap(p)[0] != ref_class:
                return False
    return True


def full_stability_check(model: SmoothedModel, x: Sequence[float],
                         phi_x: Mask) -> bool:
    """Exhaustively confirm that every superset of phi_x keeps its class.

    This is the inc oracle at radius n, which enumerates every superset.
    """
    return brute_force_stability_oracle(model, x, phi_x, model.grouping.n, "inc")
