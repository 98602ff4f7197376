"""Derandomized mask distribution with exact Bernoulli(lambda) marginals,
plus an iid Bernoulli mask sampler for LIME's perturbations.

All pseudo-randomness in the package flows through one 64-bit linear
congruential generator (Knuth's MMIX constants) so every artifact is
bit-reproducible from a seed, across runs and across implementations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ConfigError

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
_TOP32 = float(1 << 32)


def lcg_step(state: int) -> int:
    """One step of x_{k+1} = (MULT * x_k + INC) mod 2^64."""
    return (LCG_MULT * state + LCG_INC) & _MASK64


class LcgStream:
    """Stateful convenience wrapper over lcg_step.

    The first value drawn from seed s is lcg_step(s): x_0 = seed and the
    outputs start at x_1, as in lcg_block and the seed vector of
    enumerate_atoms.
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

    def next_gauss_values(self, count: int) -> list[float]:
        """count standard-normal values of successive next_gauss_pair draws;
        an odd count drops the second value of the last draw."""
        vals: list[float] = []
        while len(vals) < count:
            vals.extend(self.next_gauss_pair())
        return vals[:count]


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


def lcg_block(state, count: int) -> np.ndarray:
    """The next count values of LcgStream(state).next_u64(), as uint64[count];
    for a sequence of start states, one such row per state, as
    uint64[len(state), count].

    Each value jumps straight from its start state; the arithmetic stays on
    uint64 arrays, which wrap mod 2^64 silently (numpy scalars would warn).
    """
    mults, incs = _jump_coefficients(count)
    if isinstance(state, (int, np.integer)):
        start = np.full(1, int(state) & _MASK64, dtype=np.uint64)
    else:
        start = np.array([int(s) & _MASK64 for s in state], dtype=np.uint64)[:, None]
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


def enumerate_atoms(cfg: SmoothingConfig) -> np.ndarray:
    """The q atoms of a config as a (q, n) uint8 array, row j-1 holding atom j.

    The seed vector is v_i = m_i / q with m_i = (x_i >> 32) mod q, where
    x_1..x_n are the first n values of LcgStream(seed). Atom j (j = 1..q)
    has bit i set iff t_i = (v_i + j/q - 1/(2q)) mod 1 <= lambda_num/q. The
    comparison is done on integers over a 2q denominator,
    (2 m_i + 2j - 1) mod 2q <= 2 lambda_num: the left side is odd while the
    threshold is even, so no t_i ever sits exactly on the threshold and
    float rounding can never flip a bit.

    Each atom is weighted 1/q, and every column holds exactly lambda_num
    ones (the exact Bernoulli marginal). A smoothed model shares the array
    with its with_mu twins, so it is made read-only, as the jump tables are.
    """
    m = (lcg_block(cfg.seed, cfg.n) >> 32) % cfg.q
    odd = np.arange(1, 2 * cfg.q, 2, dtype=np.uint64)[:, None]  # 2j - 1, j = 1..q
    atoms = ((2 * m + odd) % (2 * cfg.q) <= 2 * cfg.lambda_num).astype(np.uint8)
    atoms.flags.writeable = False
    return atoms


def iid_bernoulli_bits(lam: float, n: int, count: int, rng_state) -> np.ndarray:
    """uint8[count, n] of iid Bernoulli(lam) bits, one LCG step per bit; for a
    sequence of stream states, one such block per state, uint8[len, count, n].

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
    return (units < lam).astype(np.uint8).reshape(units.shape[:-1] + (count, n))

