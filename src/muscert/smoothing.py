"""Exact evaluation of the mask-smoothed classifier.

A smoothed model averages the base classifier over a small set of noise
masks with exact per-coordinate keep rates. The average runs over atoms in
index order with compensated summation, so two evaluations of the same
inputs agree bit for bit. `mus_evaluate` is the definitional path, one base
query per atom; `mus_evaluate_many` averages many masks at once and sends
each distinct effective mask to the base classifier once, with the same
result bits because math.fsum is correctly rounded. Also provides a Monte
Carlo estimator for the iid-noise variant and two diagnostic checks
(masking equivalence, and a demonstration that additive mask noise leaks
information where multiplicative noise does not).
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    ClassifierHandle,
    ConfigError,
    DimensionError,
    FeatureGrouping,
    Logits,
    Mask,
    PreconditionError,
    Vector,
    evaluate_rows,
    mask_and,
    mask_apply,
    mask_apply_rows,
    mask_leq,
    mask_or,
    ones_mask,
    unique_masks,
    validate_logits,
    validate_mask,
    zeros_mask,
)
from .noise import NoiseAtoms, SmoothingConfig, enumerate_atoms, iid_bernoulli_masks

EQUIVALENCE_TOL = 1e-12


@dataclass(frozen=True)
class SmoothedModel:
    """A base classifier wrapped with precomputed noise atoms.

    `mu` marks feature groups exempt from noise (always kept on); when
    absent every group is subject to masking.
    """

    base: ClassifierHandle
    grouping: FeatureGrouping
    cfg: SmoothingConfig
    atoms: NoiseAtoms
    mu: Mask | None = None
    # The atoms as a (q, n) 0/1 array and the grouping's index map, for
    # mus_evaluate_many.
    _atom_bits: np.ndarray = field(init=False, repr=False, compare=False)
    _index_map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_atom_bits", np.array(self.atoms.atoms, dtype=np.uint8))
        object.__setattr__(self, "_index_map", self.grouping.index_map())

    @classmethod
    def build(cls, base: ClassifierHandle, grouping: FeatureGrouping,
              cfg: SmoothingConfig, mu: Mask | None = None) -> "SmoothedModel":
        if grouping.d != base.d:
            raise DimensionError(
                f"grouping covers d={grouping.d} raw features, model expects {base.d}"
            )
        if cfg.n != grouping.n:
            raise ConfigError(
                f"smoothing config is over n={cfg.n} groups, grouping has {grouping.n}"
            )
        if mu is not None:
            validate_mask(mu, grouping.n)
        return cls(base=base, grouping=grouping, cfg=cfg,
                   atoms=enumerate_atoms(cfg), mu=mu)

    def with_mu(self, mu: Mask | None) -> "SmoothedModel":
        """This model with noise-exempt mask mu, sharing atoms and arrays."""
        if mu is not None:
            mu = validate_mask(mu, self.grouping.n)
        twin = copy.copy(self)
        object.__setattr__(twin, "mu", mu)
        return twin

    @property
    def n(self) -> int:
        return self.grouping.n

    @property
    def m(self) -> int:
        return self.base.m


def mus_evaluate(model: SmoothedModel, x: Sequence[float], alpha: Mask) -> Logits:
    """Average the base output over the q noise atoms applied to alpha.

    Each atom s yields an effective mask mu OR (alpha AND s); the base
    classifier is invoked exactly q times and the per-class mean is taken
    with math.fsum in atom-index order.
    """
    grouping = model.grouping
    if len(x) != grouping.d:
        raise DimensionError(f"input length {len(x)} != d={grouping.d}")
    validate_mask(alpha, grouping.n)
    mu = model.mu if model.mu is not None else zeros_mask(grouping.n)
    m = model.base.m
    q = model.cfg.q
    columns: list[list[float]] = [[] for _ in range(m)]
    for atom in model.atoms.atoms:
        effective = mask_or(mu, mask_and(alpha, atom))
        p = model.base.evaluate(mask_apply(x, effective, grouping))
        validate_logits(p, m)
        for c in range(m):
            columns[c].append(p[c])
    return tuple(math.fsum(col) / q for col in columns)


def mus_evaluate_many(model: SmoothedModel, x: Sequence[float],
                      alphas: Sequence[Mask]) -> list[Logits]:
    """[mus_evaluate(model, x, alpha) for alpha in alphas], bit for bit.

    All len(alphas) * q effective masks are built as one array and
    deduplicated; each distinct one is one row of a single base batch. The
    per-class mean over an alpha's q atoms is taken with math.fsum, which is
    correctly rounded, so repeated rows cannot change a bit of it.
    """
    grouping = model.grouping
    n = grouping.n
    if len(x) != grouping.d:
        raise DimensionError(f"input length {len(x)} != d={grouping.d}")
    masks = np.array([validate_mask(a, n) for a in alphas], dtype=np.uint8).reshape(-1, n)
    if len(masks) == 0:
        return []
    q = model.cfg.q
    effective = (masks[:, None, :] & model._atom_bits).reshape(-1, n)
    if model.mu is not None:
        effective |= np.array(model.mu, dtype=np.uint8)
    distinct, inverse = unique_masks(effective)
    inputs = mask_apply_rows(np.asarray(x, dtype=float), distinct, model._index_map)
    probs = evaluate_rows(model.base, inputs)[inverse]
    blocks = probs.reshape(len(masks), -1, probs.shape[1]).transpose(0, 2, 1).tolist()
    return [tuple(math.fsum(col) / q for col in block) for block in blocks]


def smoothed_predict(model: SmoothedModel, x: Sequence[float]) -> Logits:
    """Smoothed forward pass: the all-ones mask average."""
    return mus_evaluate_many(model, x, [ones_mask(model.grouping.n)])[0]


def rmus_estimate(base: ClassifierHandle, grouping: FeatureGrouping,
                  x: Sequence[float], alpha: Mask, lam: float,
                  samples: int, rng_state: int) -> Logits:
    """Monte Carlo mean of the base output under iid Bernoulli(lam) masks.

    Deterministic given rng_state; used to cross-check the exact atom
    average against the iid-noise definition it derandomizes.
    """
    if len(x) != grouping.d:
        raise DimensionError(f"input length {len(x)} != d={grouping.d}")
    validate_mask(alpha, grouping.n)
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    draws = iid_bernoulli_masks(lam, grouping.n, samples, rng_state)
    m = base.m
    columns: list[list[float]] = [[] for _ in range(m)]
    for s in draws:
        p = base.evaluate(mask_apply(x, mask_and(alpha, s), grouping))
        validate_logits(p, m)
        for c in range(m):
            columns[c].append(p[c])
    return tuple(math.fsum(col) / samples for col in columns)


def masking_equivalence_check(model: SmoothedModel, x: Sequence[float],
                              alpha: Mask) -> bool:
    """True iff smoothing the mask equals smoothing the pre-masked input.

    With a noise-exemption mask mu set, the identity is only guaranteed
    when alpha keeps everything mu keeps, so that case is a precondition.
    """
    if model.mu is not None and not mask_leq(model.mu, alpha):
        raise PreconditionError(
            "equivalence requires alpha to cover the noise-exempt mask mu"
        )
    lhs = mus_evaluate(model, x, alpha)
    premasked = mask_apply(x, alpha, model.grouping)
    rhs = mus_evaluate(model, premasked, ones_mask(model.grouping.n))
    return all(abs(a - b) <= EQUIVALENCE_TOL for a, b in zip(lhs, rhs))


@dataclass(frozen=True)
class LeakageReport:
    """Four expectations comparing additive and multiplicative mask noise."""

    n: int
    additive_lhs: float
    additive_rhs: float
    multiplicative_lhs: float
    multiplicative_rhs: float

    @property
    def additive_leaks(self) -> bool:
        return self.additive_lhs > self.additive_rhs

    @property
    def multiplicative_matches(self) -> bool:
        return abs(self.multiplicative_lhs - self.multiplicative_rhs) <= EQUIVALENCE_TOL


def _nonzero_indicator(z: Sequence[float]) -> float:
    return 0.0 if all(v == 0.0 for v in z) else 1.0


def additive_leakage_demo(n: int) -> LeakageReport:
    """Show that adding noise to the mask breaks pre-masking equivalence.

    The classifier fires on any nonzero input. Two equiprobable noise
    vectors (+1 and -1 everywhere) are either added to the mask or
    multiplied into it; with x all-ones and alpha all-zeros the additive
    form sees the unmasked input through the shifted mask while the
    pre-masked side stays at zero.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    x = tuple(1.0 for _ in range(n))
    alpha = tuple(0.0 for _ in range(n))
    noises = [tuple(1.0 for _ in range(n)), tuple(-1.0 for _ in range(n))]

    def additive(point: Vector, mask: Vector) -> float:
        total = 0.0
        for s in noises:
            shifted = tuple(a + e for a, e in zip(mask, s))
            total += _nonzero_indicator(tuple(p * a for p, a in zip(point, shifted)))
        return total / len(noises)

    def multiplicative(point: Vector, mask: Vector) -> float:
        total = 0.0
        for s in noises:
            scaled = tuple(a * e for a, e in zip(mask, s))
            total += _nonzero_indicator(tuple(p * a for p, a in zip(point, scaled)))
        return total / len(noises)

    premasked = tuple(p * a for p, a in zip(x, alpha))
    ones = tuple(1.0 for _ in range(n))
    return LeakageReport(
        n=n,
        additive_lhs=additive(x, alpha),
        additive_rhs=additive(premasked, ones),
        multiplicative_lhs=multiplicative(x, alpha),
        multiplicative_rhs=multiplicative(premasked, ones),
    )
