"""Atom enumeration, exact marginals, and the pinned generator recipe."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muscert.core import ConfigError
from muscert.noise import (
    MAX_Q,
    LcgStream,
    _jump_coefficients,
    SmoothingConfig,
    derive_rng_state,
    enumerate_atoms,
    iid_bernoulli_bits,
    lcg_block,
    lcg_step,
)

# Values frozen from an independent big-integer implementation of the
# generator recipe; they pin the byte-level behavior across refactors.
FROZEN_FIRST_STEP = 1442695040888963407
FROZEN_TOP32 = 335903614


def test_lcg_first_step_from_zero_seed():
    assert lcg_step(0) == FROZEN_FIRST_STEP
    assert lcg_step(0) >> 32 == FROZEN_TOP32


# Atoms (one string of bits per row) for the frozen seed vectors
# m = (6, 1, 2, 1) of seed 0 at q = 8 and m = (13, 5, 5, 15, 12, 9) of seed 42
# at q = 16; a drift in the random stream changes them.
FROZEN_ATOMS = {
    (0, 4, 8, 3): ["0111", "0101", "1000", "1000", "1000", "0000", "0010", "0111"],
    (42, 6, 16, 5): ["000000", "000100", "000100", "100100", "100110", "100110",
                     "100010", "100011", "000011", "000001", "000001", "011001",
                     "011000", "011000", "011000", "011000"],
}


def test_enumerate_atoms_frozen_values():
    for (seed, n, q, lambda_num), rows in FROZEN_ATOMS.items():
        cfg = SmoothingConfig(q=q, lambda_num=lambda_num, seed=seed, n=n)
        assert ["".join(map(str, atom)) for atom in enumerate_atoms(cfg).tolist()] == rows


def test_atom_enumeration_worked_example():
    cfg = SmoothingConfig(q=4, lambda_num=2, seed=4, n=2)
    atoms = enumerate_atoms(cfg)
    assert atoms.dtype == np.uint8 and atoms.shape == (4, 2)
    assert atoms.tolist() == [[1, 1], [1, 0], [0, 0], [0, 1]]
    with pytest.raises(ValueError, match="read-only"):
        atoms[0, 0] = 0


def test_enumerate_atoms_is_deterministic():
    cfg = SmoothingConfig(q=8, lambda_num=3, seed=123, n=5)
    assert enumerate_atoms(cfg).tolist() == enumerate_atoms(cfg).tolist()


def test_full_keep_rate_gives_all_ones_atoms():
    cfg = SmoothingConfig(q=6, lambda_num=6, seed=9, n=4)
    assert enumerate_atoms(cfg).tolist() == [[1, 1, 1, 1]] * 6


@given(st.integers(2, 16), st.data(), st.integers(1, 9), st.integers(0, 2**62))
@settings(max_examples=120)
def test_marginals_exact_for_every_coordinate(q, data, n, seed):
    """Each coordinate sees exactly lambda_num ones across the q atoms."""
    lambda_num = data.draw(st.integers(1, q))
    cfg = SmoothingConfig(q=q, lambda_num=lambda_num, seed=seed, n=n)
    atoms = enumerate_atoms(cfg).tolist()
    assert len(atoms) == q
    for i in range(n):
        assert sum(atom[i] for atom in atoms) == lambda_num


def test_smoothing_config_validation():
    # q is capped at MAX_Q = 2^16 before any array is built; MAX_Q itself works.
    assert MAX_Q == 2 ** 16
    for q in (1, MAX_Q + 1, 2 ** 40, 2 ** 63, 2 ** 64):
        with pytest.raises(ConfigError, match=rf"^q must be in \[2, 65536\], got {q}$"):
            SmoothingConfig(q=q, lambda_num=1, seed=0, n=2)
    atoms = enumerate_atoms(SmoothingConfig(q=MAX_Q, lambda_num=2, seed=0, n=2))
    assert atoms.shape == (MAX_Q, 2) and atoms.sum(axis=0).tolist() == [2, 2]
    with pytest.raises(ConfigError, match=r"^lambda_num must be in \[1, 4\], got 0$"):
        SmoothingConfig(q=4, lambda_num=0, seed=0, n=2)
    with pytest.raises(ConfigError, match=r"^lambda_num must be in \[1, 4\], got 5$"):
        SmoothingConfig(q=4, lambda_num=5, seed=0, n=2)
    with pytest.raises(ConfigError, match="^n must be >= 1, got 0$"):
        SmoothingConfig(q=4, lambda_num=2, seed=0, n=0)


@pytest.mark.parametrize("field,value,message", [
    ("q", True, "q must be an integer, got True"),
    ("lambda_num", True, "lambda_num must be an integer, got True"),
    ("n", True, "n must be an integer, got True"),
    ("seed", False, "seed must be an integer, got False"),
])
def test_smoothing_config_rejects_booleans(field, value, message):
    """A bool is not a count or a seed, though it is an int equal to 1 or 0:
    accepted, lambda_num=True would be written to certificates as true."""
    fields = {"q": 4, "lambda_num": 2, "seed": 0, "n": 2, field: value}
    with pytest.raises(ConfigError, match=f"^{message}$"):
        SmoothingConfig(**fields)


def test_lam_property():
    cfg = SmoothingConfig(q=16, lambda_num=4, seed=0, n=3)
    assert cfg.lam == 0.25


def test_derive_rng_state_spreads_indices():
    base = derive_rng_state(5, 0)
    assert base == lcg_step(5)
    assert derive_rng_state(5, 1) == lcg_step(6)
    assert derive_rng_state(5, 1) != base


def test_iid_masks_shape_and_determinism():
    draws = iid_bernoulli_bits(0.5, 4, 10, rng_state=77)
    again = iid_bernoulli_bits(0.5, 4, 10, rng_state=77)
    assert draws.tolist() == again.tolist()
    assert draws.shape == (10, 4)
    assert set(draws.ravel().tolist()) <= {0, 1}


def test_iid_masks_degenerate_rates():
    assert iid_bernoulli_bits(0.0, 3, 5, 1).tolist() == [[0, 0, 0]] * 5
    assert iid_bernoulli_bits(1.0, 3, 5, 1).tolist() == [[1, 1, 1]] * 5


def test_iid_masks_hit_rate_near_lambda():
    draws = iid_bernoulli_bits(0.5, 8, 2000, rng_state=3)
    ones = int(draws.sum())
    assert abs(ones / (8 * 2000) - 0.5) < 0.02


def test_iid_masks_validation():
    with pytest.raises(ConfigError, match=r"^lambda must be in \[0, 1\], got -0\.1$"):
        iid_bernoulli_bits(-0.1, 3, 5, 0)
    with pytest.raises(ConfigError, match=r"^lambda must be in \[0, 1\], got 1\.5$"):
        iid_bernoulli_bits(1.5, 3, 5, 0)
    with pytest.raises(ConfigError, match="count must be >= 0, got -1"):
        iid_bernoulli_bits(0.5, 3, -1, 0)
    assert iid_bernoulli_bits(0.5, 3, 0, 0).shape == (0, 3)


def _scalar_iid_masks(lam, n, count, rng_state):
    """The per-bit stream walk: bit (r, i) is draw r * n + i below lam."""
    stream = LcgStream(rng_state)
    return [tuple(1 if stream.next_unit() < lam else 0 for _ in range(n))
            for _ in range(count)]


@pytest.mark.parametrize("state", [0, 1, 2**64 - 1, -3] + [random.Random(5).getrandbits(64)
                                                          for _ in range(3)])
def test_lcg_block_equals_scalar_stream(state):
    # 4097 and 5000 exceed the table length 4096 cached just before them.
    for count in (0, 1, 4096, 4097, 5000):
        stream = LcgStream(state)
        block = lcg_block(state, count)
        assert block.dtype == np.uint64
        assert block.tolist() == [stream.next_u64() for _ in range(count)]


def test_lcg_block_of_many_states_holds_one_stream_per_row():
    states = [0, 2**64 - 1, -3, 77]
    for count in (0, 1, 33):
        block = lcg_block(states, count)
        assert block.shape == (len(states), count)
        assert block.tolist() == [lcg_block(s, count).tolist() for s in states]
    bits = iid_bernoulli_bits(0.5, 3, 5, states)
    assert bits.shape == (len(states), 5, 3)
    assert bits.tolist() == [iid_bernoulli_bits(0.5, 3, 5, s).tolist() for s in states]
    assert lcg_block([], 4).shape == (0, 4)
    # numpy integers are stream states too.
    assert lcg_block(np.int64(-3), 5).tolist() == lcg_block(-3, 5).tolist()
    assert lcg_block(np.array(states[:2], dtype=np.uint64), 5).tolist() == (
        lcg_block(states[:2], 5).tolist())


def test_cached_jump_tables_are_read_only():
    mults, incs = _jump_coefficients(16)
    for table in (mults, incs):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    block = lcg_block(3, 16)
    block[0] = 1  # each block is a fresh array
    assert lcg_block(3, 16)[0] == LcgStream(3).next_u64()


# The top 32 bits of the first draw from state 77, one of the states below:
# the rates at, just above and just below u / 2^32 put that draw on each side
# of the integer threshold ceil(lam * 2^32).
_FIRST_TOP32 = LcgStream(77).next_u64() >> 32


@pytest.mark.parametrize("lam", [
    0.0, 1.0, 0.5, random.Random(9).random(), 0.3, 1e-300, 2.0 ** -33, 2.0 ** -32,
    1 - 1e-10, _FIRST_TOP32 / 2 ** 32, math.nextafter(_FIRST_TOP32 / 2 ** 32, 1.0),
    math.nextafter(_FIRST_TOP32 / 2 ** 32, 0.0)])
def test_iid_masks_equal_scalar_stream(lam):
    for n, count, state in ((1, 1, 0), (3, 5, 77), (16, 256, 2**64 - 1), (7, 300, 12345)):
        bits = iid_bernoulli_bits(lam, n, count, state)
        assert bits.dtype == np.uint8 and bits.shape == (count, n)
        assert [tuple(row) for row in bits.tolist()] == _scalar_iid_masks(
            lam, n, count, state)


def test_stream_next_below_respects_bound():
    stream = LcgStream(42)
    vals = [stream.next_below(7) for _ in range(200)]
    assert set(vals) <= set(range(7))
    assert len(set(vals)) > 1


def test_stream_gauss_pairs_are_deterministic_and_finite():
    a = LcgStream(8)
    b = LcgStream(8)
    for _ in range(50):
        pa = a.next_gauss_pair()
        pb = b.next_gauss_pair()
        assert pa == pb
        assert all(abs(v) < 40 for v in pa)


def test_stream_gauss_moments_are_plausible():
    stream = LcgStream(123)
    vals = []
    for _ in range(3000):
        g1, g2 = stream.next_gauss_pair()
        vals.extend((g1, g2))
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.08
