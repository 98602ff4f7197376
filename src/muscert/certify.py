"""Certified stability radii for masked explanations, with brute-force oracles.

The certificate arithmetic turns a smoothed-confidence gap into an integer
number of mask bits that may be flipped without changing the predicted
class. The brute-force oracle re-verifies that claim by enumerating every
qualifying mask; the tests and the bench lean on it, and selfcheck reads the
same masks from its exhaustive table.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator, Literal, Sequence

import numpy as np

from . import smoothing
from .core import (
    ConfigError,
    Mask,
    _float_rows,
    _int_arg,
    mask_array,
    ones_mask,
    top_classes_and_gaps,
)
from .smoothing import SmoothedModel, mus_evaluate_pairs

ENUMERATION_GUARD_BITS = 20
# How far below its computed gap an integer radius must stay. A class mean
# is the sum of its q atom outputs, correctly rounded, divided by q. Both
# summation paths give that sum: math.fsum on small batches, and on large
# ones the vectorised compensated sum whose unproven columns fall back to
# math.fsum (smoothing._exact_sums). So the sum rounds once and the division
# once, each mean in [0, 1] is within 2u + u^2 of its exact atom average
# (u = 2^-53), and the gap, one more rounded subtraction, is within
# 5u + O(u^2). A mask r flips away is compared on two means of its own
# (4u + O(u^2)), so a computed gap above 2 * lambda * r + 9u keeps the class
# at every such mask even where the exact margin is nil; 2^-49 = 16u covers
# that.
GAP_MARGIN = 2.0 ** -49

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

    # to_json_dict as a compact JSON line: json writes a finite float as its
    # repr, and certify stores Python ints and floats.
    _JSON_LINE = ('{"example_id":%d,"pred_class":%d,"masked_class":%d,"consistent":%s,'
                  '"gap_at_attr":%r,"gap_at_ones":%r,"r_inc_real":%r,"r_dec_real":%r,'
                  '"r_inc":%d,"r_dec":%d,"lambda":%r,"lambda_num":%d,"q":%d,"seed":%d,'
                  '"mu_mode":"%s"}')

    def _json_line(self) -> str:
        return self._JSON_LINE % (
            self.example_id, self.pred_class, self.masked_class, ("false", "true")[self.consistent],
            self.gap_at_attr, self.gap_at_ones, self.r_inc_real, self.r_dec_real, self.r_inc,
            self.r_dec, self.lambda_num / self.q, self.lambda_num, self.q, self.seed, self.mu_mode)

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
    """Turn a confidence gap into (real, integer) certified radius.

    The real radius is gap * q / (2 * lambda_num). The bound is strict, so
    the integer radius is the largest r >= 0 with
    2 * lambda_num * r < (gap - GAP_MARGIN) * q, compared exactly on the
    integer ratios of the two floats: a gap that lands on an integer radius
    certifies one bit less, since a flip at that distance can tie the classes.
    """
    real = gap * q / (2 * lambda_num)
    num, den = gap.as_integer_ratio()
    margin_num, margin_den = GAP_MARGIN.as_integer_ratio()
    # r < (num/den - margin_num/margin_den) * q / (2 * lambda_num), as integers
    excess = (num * margin_den - margin_num * den) * q
    return real, max(0, (excess - 1) // (2 * lambda_num * den * margin_den))


def certify_example(model: SmoothedModel, x: Sequence[float], phi_x: Mask,
                    example_id: int) -> CertRecord:
    """certify_examples of one example."""
    return certify_examples(model, [x], [phi_x], [example_id])[0]


def certify_examples(model: SmoothedModel, xs, phis, example_ids: Sequence[int],
                     mus=None) -> list[CertRecord]:
    """Consistency plus both radii of every row of the (E, d) inputs xs, one
    record each, from one mus_evaluate_pairs pass over its all-ones and phi
    masks; phis (and mus) hold one mask per example, as an (E, n) array or
    any batch that mask_array takes.

    The incremental radius (bits that may be added to phis[e]) comes from
    the gap at phis[e]; the decremental radius (bits that may be removed
    from all-ones) from the gap at all-ones. Consistent means both masks
    give the same class. mus, when given, holds each example's noise-exempt
    mask in place of model.mu. The ids are stored as Python ints.
    """
    return _certify_stage(model, xs, phis, example_ids, mus, None)


def _certify_stage(model: SmoothedModel, xs, phis, example_ids: Sequence[int],
                   mus, ones_means: np.ndarray | None) -> list[CertRecord]:
    """certify_examples, smoothing only the phi pairs when ones_means holds the (E, m)
    all-ones means that an earlier stage took with the same model, xs and exempt masks."""
    phis = mask_array(phis, model.grouping.n)
    example_ids = [_int_arg("example id", v) for v in example_ids]
    if not len(xs) == len(phis) == len(example_ids):
        raise ConfigError(f"need one mask and one id per example, got {len(xs)} "
                          f"examples, {len(phis)} masks and {len(example_ids)} ids")
    sent = [np.ones_like(phis), phis] if ones_means is None else [phis]
    means = mus_evaluate_pairs(model, xs, np.repeat(np.arange(len(phis)), len(sent)),
                               np.stack(sent, axis=1).reshape(-1, phis.shape[1]), mus)
    classes, gaps = top_classes_and_gaps(
        means if ones_means is None else np.stack([ones_means, means], 1).reshape(-1, model.m))
    cfg = model.cfg
    mu_mode = "none" if mus is None and model.mu is None else "phi"
    records = []
    for example_id, (pred_class, masked_class), (gap_at_ones, gap_at_attr) in zip(
            example_ids, classes.reshape(-1, 2).tolist(), gaps.reshape(-1, 2).tolist()):
        r_inc_real, r_inc = radius_from_gap(gap_at_attr, cfg.lambda_num, cfg.q)
        r_dec_real, r_dec = radius_from_gap(gap_at_ones, cfg.lambda_num, cfg.q)
        records.append(CertRecord(example_id, pred_class, masked_class, pred_class == masked_class,
                                  gap_at_attr, gap_at_ones, r_inc_real, r_dec_real, r_inc, r_dec,
                                  cfg.lambda_num, cfg.q, cfg.seed, mu_mode))
    return records


def enumerate_perturbation_masks(phi_x: Mask, radius: int, mode: Mode) -> Iterator[Mask]:
    """Masks within `radius` bit flips of the mode's anchor, smallest first.

    inc: supersets of phi_x (anchor phi_x, flips turn bits on).
    dec: submasks of all-ones that still cover phi_x (anchor all-ones,
    flips turn free bits off). Ordered by flip count, then index. Any other
    mode, a radius that is not an integer >= 0, or a phi_x that the mask
    rule refuses at its own length raises ConfigError when the first mask
    is drawn.
    """
    if mode not in ("inc", "dec"):
        raise ConfigError(f"mode must be 'inc' or 'dec', got {mode!r}")
    radius = _int_arg("radius", radius, 0)
    n = len(phi_x) if hasattr(phi_x, "__len__") else 0
    phi_x = mask_array([phi_x], n)[0].tolist()
    free = [i for i, bit in enumerate(phi_x) if bit == 0]
    anchor = phi_x if mode == "inc" else list(ones_mask(n))
    flip_to = 1 if mode == "inc" else 0
    for size in range(min(radius, len(free)) + 1):
        for chosen in combinations(free, size):
            out = anchor.copy()
            for i in chosen:
                out[i] = flip_to
            yield tuple(out)


def brute_force_stability_oracle(model: SmoothedModel, x: Sequence[float],
                                 phi_x: Mask, radius: int, mode: Mode) -> bool:
    """Definitional re-check of a certified radius by mask enumeration.

    inc compares every enumerated mask's class against the class at phi_x;
    dec compares against the class at all-ones. True iff nothing flips.
    Each mus_evaluate_pairs call takes a uint8 array of DRIVER_CHUNK // q
    masks, the anchor first, whose class is the reference; the oracle stops
    after the chunk holding the first flip. The chunks stay at
    DRIVER_CHUNK // q masks (at most DRIVER_CHUNK effective rows), not the
    driver's window of DRIVER_CHUNK pairs, so that little is smoothed past
    the first flip.
    """
    n = model.grouping.n
    phi_x = tuple(mask_array([phi_x], n)[0].tolist())
    if (free_bits := phi_x.count(0)) > ENUMERATION_GUARD_BITS:
        raise ConfigError(f"{free_bits} free bits exceeds the enumeration guard of "
                          f"{ENUMERATION_GUARD_BITS}")
    xs = _float_rows([x], model.grouping.d)
    masks = enumerate_perturbation_masks(phi_x, radius, mode)
    step = max(1, smoothing.DRIVER_CHUNK // model.cfg.q)
    ref_class = None
    while len(chunk := np.fromiter(chain.from_iterable(islice(masks, step)),
                                   dtype=np.uint8).reshape(-1, n)):
        means = mus_evaluate_pairs(model, xs, np.zeros(len(chunk), dtype=np.intp), chunk)
        classes = top_classes_and_gaps(means)[0]
        if ref_class is None:
            ref_class = classes[0]
        if (classes != ref_class).any():
            return False
    return True
