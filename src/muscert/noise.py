"""Derandomized mask distribution with exact Bernoulli(lambda) marginals,
plus an iid Bernoulli mask sampler for LIME's perturbations.

All pseudo-randomness in the package flows through one 64-bit linear
congruential generator (Knuth's MMIX constants), so every draw is
bit-reproducible from a seed, across runs and across implementations.
Gaussian draws (next_gauss_pair) then pass through the C library's log, cos
and sin, which are not correctly rounded, so they, and the weights and blobs
drawn from them (random_linear, random_mlp, synth_blobs), may differ in the
last bit under another C library. The exp of the forward pass is the
package's own (models._exp) and takes no part in that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _int_arg, _real_arg

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
_TOP32 = float(1 << 32)
# The largest q: the atoms of one pair then fill a default driver window
# (16 * smoothing.DRIVER_CHUNK rows), and 2q still fits a uint64.
MAX_Q = 2 ** 16


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
        self.state = _int_arg("stream state", state) & _MASK64

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

    A_k = MULT^k and C_k = INC * (1 + MULT + ... + MULT^(k-1)), the running
    product and sum of uint64 arrays, which wrap mod 2^64 exactly. The
    tables are cached and shared by every caller, so they are made
    read-only: no caller can change another's draws.
    """
    mults = np.cumprod(np.full(count, LCG_MULT, dtype=np.uint64))
    incs = np.cumsum(np.concatenate([np.ones(1, np.uint64), mults])[:count]) * np.uint64(LCG_INC)
    for table in (mults, incs):
        table.flags.writeable = False
    return mults, incs


def lcg_block(state, count: int) -> np.ndarray:
    """The next count values of LcgStream(state).next_u64(), as uint64[count];
    for a sequence of start states, one such row per state, as
    uint64[len(state), count].

    Each value jumps straight from its start state; the arithmetic stays on
    uint64 arrays, which wrap mod 2^64 silently (numpy scalars would warn).
    """
    one = np.ndim(state) == 0
    start = np.array([_int_arg("stream state", s) & _MASK64 for s in ([state] if one else state)],
                     dtype=np.uint64)
    mults, incs = _jump_coefficients(count)
    block = mults * (start if one else start[:, None])
    return np.add(block, incs, out=block)


def derive_rng_state(seed: int, index: int = 0) -> int:
    """Distinct per-example stream state: one LCG step of seed+index."""
    return lcg_step((_int_arg("seed", seed) + _int_arg("index", index)) & _MASK64)


@dataclass(frozen=True)
class SmoothingConfig:
    """Quantization q (at most MAX_Q), keep-probability lambda_num/q, seed, group count n."""

    q: int
    lambda_num: int
    seed: int
    n: int

    def __post_init__(self) -> None:
        q = _int_arg("q", self.q, 2, MAX_Q)
        fields = {"q": q, "lambda_num": _int_arg("lambda_num", self.lambda_num, 1, q),
                  "n": _int_arg("n", self.n, 1), "seed": _int_arg("seed", self.seed) & _MASK64}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

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
    ones (the exact Bernoulli marginal). A smoothed model keeps the array as
    its atoms, so it is made read-only, as the jump tables are.
    """
    m = (lcg_block(cfg.seed, cfg.n) >> 32) % cfg.q
    odd = np.arange(1, 2 * cfg.q, 2, dtype=np.uint64)[:, None]  # 2j - 1, j = 1..q
    atoms = ((2 * m + odd) % (2 * cfg.q) <= 2 * cfg.lambda_num).astype(np.uint8)
    atoms.flags.writeable = False
    return atoms


def iid_bernoulli_bits(lam: float, n: int, count: int, rng_state) -> np.ndarray:
    """uint8[count, n] of iid Bernoulli(lam) bits, one LCG step per bit; for a
    sequence of stream states, one such block per state, uint8[len, count, n].

    Bit (r, i) is next_unit() < lam for stream value r * n + i: the top 32
    bits u, shifted in place, pass u < ceil(lam * 2^32), which for an integer
    u holds exactly when u / 2^32 < lam, so this matches the scalar stream.
    """
    lam = _real_arg("lambda", lam, 0, 1)
    n, count = _int_arg("n", n, 1), _int_arg("count", count, 0)
    draws = lcg_block(rng_state, count * n)
    draws >>= np.uint64(32)
    bits = draws < np.uint64(math.ceil(lam * _TOP32))
    return bits.view(np.uint8).reshape(draws.shape[:-1] + (count, n))

