"""Derandomized mask distribution with exact Bernoulli(lambda) marginals,
plus an iid Bernoulli mask sampler for the Monte Carlo estimator.

All pseudo-randomness in the package flows through one 64-bit linear
congruential generator (Knuth's MMIX constants) so every artifact is
bit-reproducible from a seed, across runs and across implementations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ConfigError, Mask

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
_TOP32 = float(1 << 32)


def lcg_step(state: int) -> int:
    """One step of x_{k+1} = (MULT * x_k + INC) mod 2^64."""
    return (LCG_MULT * state + LCG_INC) & _MASK64


class LcgStream:
    """Stateful convenience wrapper over lcg_step.

    The first value drawn from seed s is lcg_step(s), matching the
    derive_seed_vector recipe (x_0 = seed, outputs start at x_1).
    """

    def __init__(self, state: int) -> None:
        self.state = state & _MASK64

    def next_u64(self) -> int:
        self.state = lcg_step(self.state)
        return self.state

    def next_unit(self) -> float:
        """Uniform value in [0, 1) from the top 32 bits."""
        return (self.next_u64() >> 32) / _TOP32

    def next_below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound) from the top 32 bits."""
        return (self.next_u64() >> 32) % bound

    def next_gauss_pair(self) -> tuple[float, float]:
        """Standard-normal pair via Box-Muller on two LCG uniforms.

        Uses u = ((x >> 32) + 0.5) / 2^32 so u is strictly inside (0, 1).
        """
        u1 = ((self.next_u64() >> 32) + 0.5) / _TOP32
        u2 = ((self.next_u64() >> 32) + 0.5) / _TOP32
        r = math.sqrt(-2.0 * math.log(u1))
        return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)


@lru_cache(maxsize=8)
def _jump_coefficients(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only uint64 tables (A, C) with x_k = A[k-1] * x_0 + C[k-1] mod 2^64.

    A_k = MULT^k and C_k = lcg_step(C_{k-1}), C_0 = 0, built with Python
    integers. The tables are cached and shared by every caller, so they are
    made read-only: no caller can change another's draws.
    """
    def powers():
        a = 1
        for _ in range(count):
            a = (a * LCG_MULT) & _MASK64
            yield a

    def offsets():
        c = 0
        for _ in range(count):
            c = lcg_step(c)
            yield c

    tables = (np.fromiter(powers(), dtype=np.uint64, count=count),
              np.fromiter(offsets(), dtype=np.uint64, count=count))
    for table in tables:
        table.flags.writeable = False
    return tables


def lcg_block(state: int, count: int) -> np.ndarray:
    """The next count values of LcgStream(state).next_u64(), as uint64[count].

    Each value jumps straight from state; the arithmetic stays on uint64
    arrays, which wrap mod 2^64 silently (numpy scalars would warn).
    """
    mults, incs = _jump_coefficients(count)
    start = np.full(1, state & _MASK64, dtype=np.uint64)
    return mults * start + incs


def derive_rng_state(seed: int, index: int = 0) -> int:
    """Distinct per-example stream state: one LCG step of seed+index."""
    return lcg_step((seed + index) & _MASK64)


@dataclass(frozen=True)
class SmoothingConfig:
    """Quantization q, keep-probability lambda_num/q, seed, and group count n."""

    q: int
    lambda_num: int
    seed: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q <= 1:
            raise ConfigError(f"q must be an integer > 1, got {self.q!r}")
        if not isinstance(self.lambda_num, int) or not 1 <= self.lambda_num <= self.q:
            raise ConfigError(
                f"lambda_num must satisfy 1 <= lambda_num <= q={self.q}, "
                f"got {self.lambda_num!r}"
            )
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError(f"n must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", self.seed & _MASK64)

    @property
    def lam(self) -> float:
        return self.lambda_num / self.q


@dataclass(frozen=True)
class NoiseAtoms:
    """The q masks of the derandomized distribution plus the seed vector used.

    Each atom is weighted 1/q. For every coordinate i, exactly lambda_num of
    the q atoms have bit i set (the exact Bernoulli marginal).
    """

    atoms: tuple[Mask, ...]
    seed_vector: tuple[float, ...]
    seed_numerators: tuple[int, ...]
    q: int
    lambda_num: int


def seed_vector_numerators(seed: int, n: int, q: int) -> tuple[int, ...]:
    """Integer numerators m_i with v_i = m_i / q, derived from the LCG."""
    if q <= 1:
        raise ConfigError(f"q must be > 1, got {q}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    stream = LcgStream(seed)
    return tuple((stream.next_u64() >> 32) % q for _ in range(n))


def derive_seed_vector(seed: int, n: int, q: int) -> tuple[float, ...]:
    """Seed vector v with v_i = ((x_{i+1} >> 32) mod q) / q, x_0 = seed."""
    return tuple(num / q for num in seed_vector_numerators(seed, n, q))


def atoms_from_numerators(
    v_numerators: tuple[int, ...], q: int, lambda_num: int
) -> tuple[Mask, ...]:
    """Enumerate the q atoms for seed vector v = v_numerators / q.

    Atom j (j = 1..q, base offsets ascending) has bit i set iff
    t_i = (v_i + j/q - 1/(2q)) mod 1 <= lambda_num/q. The comparison is done
    on integers over a 2q denominator: the t numerators are odd while the
    threshold numerator 2*lambda_num is even, so no t_i ever sits exactly on
    the threshold and float rounding can never flip a bit.
    """
    two_q = 2 * q
    threshold = 2 * lambda_num
    atoms = []
    for j in range(1, q + 1):
        bits = tuple(
            1 if (2 * m_i + 2 * j - 1) % two_q <= threshold else 0
            for m_i in v_numerators
        )
        atoms.append(bits)
    return tuple(atoms)


def enumerate_atoms(cfg: SmoothingConfig) -> NoiseAtoms:
    """Build the derandomized atom list for a config; pure and deterministic."""
    numerators = seed_vector_numerators(cfg.seed, cfg.n, cfg.q)
    atoms = atoms_from_numerators(numerators, cfg.q, cfg.lambda_num)
    return NoiseAtoms(
        atoms=atoms,
        seed_vector=tuple(m / cfg.q for m in numerators),
        seed_numerators=numerators,
        q=cfg.q,
        lambda_num=cfg.lambda_num,
    )


def iid_bernoulli_bits(lam: float, n: int, count: int, rng_state: int) -> np.ndarray:
    """uint8[count, n] of iid Bernoulli(lam) bits, one LCG step per bit.

    Bit (r, i) is next_unit() < lam for stream value r * n + i; the top 32
    bits over 2^32 are exact in float64, so this matches the scalar stream.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must lie in [0, 1], got {lam!r}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    units = (lcg_block(rng_state, count * n) >> 32) / _TOP32
    return (units < lam).astype(np.uint8).reshape(count, n)

