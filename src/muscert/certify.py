"""Certified stability radii for masked explanations, with brute-force oracles.

The certificate arithmetic turns a smoothed-confidence gap into an integer
number of mask bits that may be flipped without changing the predicted
class. The brute-force oracle re-verifies that claim by enumerating every
qualifying mask; the tests and the bench lean on it, and selfcheck reads the
same masks from its exhaustive table.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import chain, combinations, islice, repeat
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
from .noise import MAX_Q
from .smoothing import SmoothedModel, mus_evaluate_pairs

ENUMERATION_GUARD_BITS = 20
# How far below its computed gap an integer radius must stay. A class mean
# is the sum of its q atom outputs, correctly rounded, divided by q. Both
# summation paths give that sum: math.fsum on small batches, and on large
# ones the error-free split sum of smoothing._exact_sums, which sends to
# math.fsum only the columns its exact tests leave undecided. So the sum
# rounds once and the division once, each mean in [0, 1] is within
# 2u + u^2 of its exact atom average (u = 2^-53), and the gap, one more
# rounded subtraction, is within 5u + O(u^2). A mask r flips away is
# compared on two means of its own (4u + O(u^2)), so a computed gap above
# 2 * lambda * r + 9u keeps the class at every such mask even where the
# exact margin is nil; 2^-49 = 16u covers that.
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

    def to_json_dict(self) -> dict:
        """The fields in order, with "lambda" = lambda_num / q before lambda_num."""
        names = [f.name for f in fields(self)]
        doc = {name: getattr(self, name) for name in names[:10]}
        doc["lambda"] = self.lambda_num / self.q
        return doc | {name: getattr(self, name) for name in names[10:]}


_THRESHOLDS: dict[tuple[int, int], np.ndarray] = {}  # by (lambda_num, q), as far as needed


def radii_from_gaps(gaps, lambda_num: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The real radii gaps * q / (2 * lambda_num) of an array of confidence
    gaps, and its integer radii: each the largest r >= 0 with
    2 * lambda_num * r < (gap - GAP_MARGIN) * q, so a gap on an integer
    radius certifies one bit less (a flip that far can tie the classes).
    That r counts the thresholds GAP_MARGIN + 2 * lambda_num * k / q, k >= 1,
    below the gap, and a float is above a rational exactly when it is above
    the rational rounded down to a float: one searchsorted over those rounded
    thresholds, each from its integer ratio once per (lambda_num, q), counts
    them. lambda_num and q follow SmoothingConfig's rule; a gap that is not
    a finite number, or whose radius passes MAX_Q, raises ConfigError."""
    q = _int_arg("q", q, 2, MAX_Q)
    lambda_num = _int_arg("lambda_num", lambda_num, 1, q)
    try:
        gaps = np.asarray(gaps, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("gaps must be numbers") from None
    if not np.isfinite(gaps).all():
        raise ConfigError(f"gaps must be finite, got {float(gaps[~np.isfinite(gaps)][0])!r}")
    top = float(gaps.max(initial=0.0))
    # Threshold k is above every gap once k passes the largest real radius.
    count = int(min(top * q / (2 * lambda_num) + 2, MAX_Q + 1))
    table = _THRESHOLDS.get((lambda_num, q), np.empty(0))
    if len(table) < count:
        margin_num, margin_den = GAP_MARGIN.as_integer_ratio()
        den, rounded = q * margin_den, []
        for k in range(len(table) + 1, count + 1):
            num = margin_num * q + 2 * lambda_num * k * margin_den
            near_num, near_den = (near := num / den).as_integer_ratio()  # correctly rounded
            rounded.append(math.nextafter(near, 0.0) if near_num * den > num * near_den else near)
        table = _THRESHOLDS[lambda_num, q] = np.concatenate((table, rounded))
    if table[count - 1] < top:
        raise ConfigError(f"gap {top!r} gives a radius above {MAX_Q}")
    return gaps * q / (2 * lambda_num), np.searchsorted(table[:count], gaps)


class _Certificates(namedtuple("_Certificates", [f.name for f in fields(CertRecord)])):
    """The certify stage's records as columns: a list per CertRecord field
    that varies by example, then the fields that all examples share."""

    __slots__ = ()

    def json_lines(self) -> list[str]:
        """Each record's to_json_dict as a compact JSON line; shared fields go in once."""
        head, tail = CertRecord._JSON_LINE.split('"lambda":')
        tail = ('"lambda":' + tail % (self.lambda_num / self.q, *self[10:])).replace("%", "%%")
        consistent = map(("false", "true").__getitem__, self.consistent)
        return list(map((head + tail).__mod__, zip(*self[:3], consistent, *self[4:10])))


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
    columns = _certify_stage(model, xs, phis, example_ids, mus, None)
    return [CertRecord(*row) for row in zip(*columns[:10], *map(repeat, columns[10:]))]


def _certify_stage(model: SmoothedModel, xs, phis, example_ids: Sequence[int],
                   mus, ones_means: np.ndarray | None) -> _Certificates:
    """certify_examples as columns, smoothing only the phi pairs when ones_means holds the
    (E, m) all-ones means that an earlier stage took with the same model, xs and exempt masks."""
    phis = mask_array(phis, model.grouping.n)
    example_ids = [_int_arg("example id", v) for v in example_ids]
    if not len(xs) == len(phis) == len(example_ids):
        raise ConfigError(f"need one mask and one id per example, got {len(xs)} "
                          f"examples, {len(phis)} masks and {len(example_ids)} ids")
    sent = [np.ones_like(phis), phis] if ones_means is None else [phis]
    means = mus_evaluate_pairs(model, xs, np.repeat(np.arange(len(phis)), len(sent)),
                               np.stack(sent, axis=1).reshape(-1, phis.shape[1]), mus)
    classes, gaps = (a.reshape(-1, 2) for a in top_classes_and_gaps(
        means if ones_means is None else np.stack([ones_means, means], 1).reshape(-1, model.m)))
    cfg = model.cfg
    real, radii = radii_from_gaps(gaps, cfg.lambda_num, cfg.q)
    consistent = (classes[:, 0] == classes[:, 1]).tolist()  # column 0 at all-ones, 1 at phi
    return _Certificates(example_ids, *classes.T.tolist(), consistent, *gaps[:, ::-1].T.tolist(),
                         *real[:, ::-1].T.tolist(), *radii[:, ::-1].T.tolist(), cfg.lambda_num,
                         cfg.q, cfg.seed, "none" if mus is None and model.mu is None else "phi")


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
