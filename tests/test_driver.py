"""Dataset driver: exact block sums, array argmax, dedup on packed mask
words, the staged pair evaluation against the definitional paths, and the
shared-mask grid against the pair evaluation."""
from __future__ import annotations

import json
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from muscert import attack, attribution, certify, cli, smoothing
from muscert.attack import attack_walks
from muscert.attribution import gradient_score_rows, greedy_stable_masks
from muscert.certify import certify_example, certify_examples
from muscert.core import ConfigError, FeatureGrouping, top_classes_and_gaps
from muscert.models import random_linear, random_mlp
from muscert.noise import LcgStream, SmoothingConfig, derive_rng_state
from muscert.smoothing import (
    SmoothedModel,
    _atom_means,
    _exact_sums,
    mus_evaluate_pairs,
)

from conftest import ConstantHandle
from reference import greedy_prefix, greedy_walk, mus_evaluate, scalar_probs, top_class_and_gap
from test_certify import OneHotTable, XorTable

U = 2.0 ** -53


def _count_fsum(monkeypatch):
    calls = []
    real = math.fsum

    def counting(values):
        calls.append(1)
        return real(values)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


def _column(values, q=8):
    """One (1, q, 1) block holding values, padded with zeros."""
    block = np.zeros((1, q, 1))
    block[0, :len(values), 0] = values
    return block


# --------------------------------------------------------- exact block sums

@pytest.mark.parametrize("values,want", [
    # 0.75 + half an ulp + a little: the compensated sum ties twice to even
    # and returns 0.75, but the sum is above the midpoint.
    ((0.75, 2.0 ** -54, 2.0 ** -107), 0.75 + 2.0 ** -53),
    # At 1.0 the gap below (2^-53) is half the gap above. Sum2 returns 1.0
    # with a residual of exactly half the lower gap, and the exact sum is
    # a little below that midpoint, so it rounds down to 1 - 2^-53. A test
    # on the upper gap would have accepted 1.0.
    ((1.0 - U, 2.0 ** -55, 2.0 ** -55 - 2.0 ** -108), 1.0 - U),
    # The same at 2.0, scaled by two.
    ((2.0 - 2 * U, 2.0 ** -54, 2.0 ** -54 - 2.0 ** -107), 2.0 - 2 * U),
    # Each small term is an exact TwoSum error. Their floating-point sum
    # ties down three times and lands 2^-106 below half an ulp of 0.75, so
    # the residual alone passes; the exact sum is 2^-108 above the midpoint.
    # Only the bound on the error sum's own rounding sends it to fsum.
    ((0.75, 2.0 ** -55, 2.0 ** -55 - 3 * 2.0 ** -108) + (2.0 ** -108,) * 4, 0.75 + U),
], ids=["half-ulp", "power-of-two-1", "power-of-two-2", "error-sum-rounding"])
def test_fallback_fires_where_the_compensated_sum_rounds_wrong(monkeypatch, values, want):
    block = _column(values)
    assert math.fsum(values) == want
    # What the compensated sum gives without the rounding test.
    s, err = 0.0, 0.0
    for p in values:
        t = s + p
        virtual = t - s
        err += (s - (t - virtual)) + (p - virtual)
        s = t
    assert s + err != want
    calls = _count_fsum(monkeypatch)
    assert _exact_sums(block)[0, 0] == want
    assert len(calls) == 1


def test_rounding_test_passes_exact_and_clear_blocks(monkeypatch):
    """Exact sums (zero included, whose rounding interval is a point) and
    sums far from a midpoint need no fallback."""
    blocks = np.array([[[0.25, 0.5, 0.0], [0.5, 0.25, 0.0], [0.25, 0.25, 0.0]],
                       [[0.1, 0.7, 0.0], [0.2, 0.2, 0.0], [0.3, 0.1, 0.0]]])
    calls = _count_fsum(monkeypatch)
    got = _exact_sums(blocks)
    assert len(calls) == 0
    assert got.tolist() == [[1.0, 1.0, 0.0],
                            [math.fsum((0.1, 0.2, 0.3)), math.fsum((0.7, 0.2, 0.1)), 0.0]]


def _random_blocks(stream, k, q, m, one_hot):
    if one_hot:
        probs = np.zeros((k, q, m))
        for i in range(k):
            for j in range(q):
                probs[i, j, stream.next_below(m)] = 1.0
        return probs
    raw = np.array([[[stream.next_unit() + 1e-3 for _ in range(m)] for _ in range(q)]
                    for _ in range(k)])
    return raw / raw.sum(axis=2, keepdims=True)


@pytest.mark.parametrize("one_hot", [False, True], ids=["random", "one-hot"])
@pytest.mark.parametrize("q", [2, 8, 16])
def test_both_mean_paths_equal_fsum(q, one_hot):
    stream = LcgStream(derive_rng_state(q, int(one_hot)))
    blocks = _random_blocks(stream, 120, q, 3, one_hot)
    want = np.array([[math.fsum(blocks[i, :, c].tolist()) / q for c in range(3)]
                     for i in range(len(blocks))])
    assert len(blocks) * 3 >= smoothing.VECTOR_SUM_BLOCKS
    vector = _atom_means(blocks)
    looped = np.concatenate([_atom_means(blocks[i:i + 1]) for i in range(len(blocks))])
    assert vector.tobytes() == want.tobytes() == looped.tobytes()


def test_exact_sums_on_blocks_built_near_rounding_boundaries():
    """Columns of a float plus half-ulp and tiny parts: many sit on or next to
    a rounding midpoint, so the fallback is exercised as well as the fast
    path."""
    stream = LcgStream(derive_rng_state(4, 4))
    rows = []
    for _ in range(400):
        head = (1 + stream.next_below(1 << 20)) / (1 << 20)
        half = math.ulp(head) / 2
        tail = [half * (stream.next_below(3) / 2), half * 2.0 ** -(1 + stream.next_below(60))]
        rows.append([head, *tail, 0.0][:4])
    blocks = np.array(rows)[:, :, None]
    got = _exact_sums(blocks)[:, 0]
    assert got.tolist() == [math.fsum(row) for row in rows]


# SHAP sums its gains, differences of two probabilities, with _exact_sums too.

def _fsum_columns(blocks):
    """math.fsum of every column of a (k, q, m) array, as a (k, m) array."""
    return np.array([[math.fsum(block[:, c].tolist()) for c in range(block.shape[1])]
                     for block in blocks]).reshape(len(blocks), blocks.shape[2])


def _signed_units(stream, count):
    """count values in [-1, 1] of 53 random bits each (next_unit holds 32)."""
    return [2.0 * stream.next_unit() - 1.0 + stream.next_unit() * 2.0 ** -32
            for _ in range(count)]


def test_exact_sums_of_signed_blocks_that_cancel_to_zero(monkeypatch):
    """Each column holds values and their negatives in a shuffled order: the
    exact sum is 0, the rounding test never passes a zero total, and the
    second split decides it with no math.fsum call: +0.0, math.fsum's bits."""
    stream = LcgStream(derive_rng_state(5, 5))
    columns = []
    for _ in range(40):
        half = _signed_units(stream, 6)
        column = half + [-v for v in half]
        for i in range(len(column) - 1, 0, -1):
            j = stream.next_below(i + 1)
            column[i], column[j] = column[j], column[i]
        columns.append(column)
    blocks = np.array(columns).reshape(4, 10, 12).transpose(0, 2, 1)
    want = _fsum_columns(blocks)
    calls = _count_fsum(monkeypatch)
    got = _exact_sums(blocks)
    assert got.tobytes() == want.tobytes() == np.zeros((4, 10)).tobytes()
    assert len(calls) == 0


@pytest.mark.parametrize("q", [1, 2, 7])
def test_exact_sums_of_signed_zeros(q):
    """Columns of -0.0, of +0.0 and of both sum to math.fsum's zero, sign
    bit included."""
    stream = LcgStream(derive_rng_state(6, q))
    blocks = np.array([[[(-0.0, 0.0)[stream.next_below(2)] if c == 2 else (-0.0, 0.0)[c]
                         for c in range(3)] for _ in range(q)] for _ in range(5)])
    assert np.signbit(blocks[:, :, 0]).all() and not np.signbit(blocks[:, :, 1]).any()
    assert _exact_sums(blocks).tobytes() == _fsum_columns(blocks).tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negated"])
@pytest.mark.parametrize("values", [
    (0.75, 2.0 ** -54, 2.0 ** -107),
    (1.0 - U, 2.0 ** -55, 2.0 ** -55 - 2.0 ** -108),
    (0.75, 2.0 ** -55, 2.0 ** -55 - 3 * 2.0 ** -108) + (2.0 ** -108,) * 4,
    # 1 - 2^-54 is the midpoint below 1.0 and ties up to it; the exact sum
    # is 2^-107 under it, so it rounds down to 1 - 2^-53.
    (1.0, -(2.0 ** -54), -(2.0 ** -107)),
    (-0.5, 1.0, -(2.0 ** -54), -(2.0 ** -107), 0.5),
], ids=["half-ulp", "power-of-two", "error-sum-rounding", "below-one", "cancel-then-below-one"])
def test_half_ulp_ties_of_either_sign_take_the_fallback(monkeypatch, values, sign):
    block = _column([sign * v for v in values])
    want = math.fsum(block[0, :, 0].tolist())
    calls = _count_fsum(monkeypatch)
    assert _exact_sums(block)[0, 0] == want
    assert len(calls) == 1


@pytest.mark.parametrize("q", [1, 1000])
def test_exact_sums_of_signed_blocks_equal_fsum(q):
    """Signed values of every magnitude down to 2^-60 times a unit, and
    differences of nearby units as SHAP's gains are, at one order (the
    selfcheck's SHAP suite) and at a thousand."""
    stream = LcgStream(derive_rng_state(7, q))
    k, m = 6, 5
    units = np.array(_signed_units(stream, k * q * m)).reshape(k, q, m)
    scales = 2.0 ** -np.array([stream.next_below(61) for _ in range(k * q * m)])
    nearby = units + np.array(_signed_units(stream, k * q * m)).reshape(k, q, m) * 2.0 ** -40
    blocks = np.concatenate([units * scales.reshape(k, q, m), nearby - units], axis=2)
    assert _exact_sums(blocks).tobytes() == _fsum_columns(blocks).tobytes()


# The error-free split: exact ties cost no fsum, remainders cost one each.

def _is_midpoint(values):
    """Whether the exact sum of values lies halfway between two floats."""
    exact = sum(map(Fraction, values), Fraction(0))
    below = float(exact)
    if Fraction(below) > exact:
        below = math.nextafter(below, -math.inf)
    above = math.nextafter(below, math.inf)
    return exact != below and 2 * exact == Fraction(below) + Fraction(above)


@pytest.mark.parametrize("values,calls", [
    # Exact sums on a midpoint: one add of the high and fine sums ties to
    # even as math.fsum does, up, down and at the power of two below 1.
    ((0.75, 2.0 ** -54), 0),
    ((0.75 + U, 2.0 ** -54), 0),
    ((1.0, -(2.0 ** -54)), 0),
    ((1.0 - U, 2.0 ** -54), 0),
    ((-0.5, 1.0, -(2.0 ** -54), 0.5, -0.25), 0),
    # A low part with bits below the second split's grid has a remainder,
    # whether or not the remainders cancel: one fsum call.
    ((0.75, 2.0 ** -54, 2.0 ** -107), 1),
    ((0.75, 2.0 ** -54, 2.0 ** -107, -(2.0 ** -107)), 1),
    ((1.0, -(2.0 ** -54), 2.0 ** -120), 1),
], ids=["up-to-even", "tie-up", "below-one", "one-from-below", "cancel-then-tie",
        "remainder", "cancelling-remainders", "tiny-remainder"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negated"])
def test_ties_take_no_fsum_and_remainders_take_one(monkeypatch, values, calls, sign):
    block = _column([sign * v for v in values])
    want = math.fsum(block[0, :, 0].tolist())
    assert calls or _is_midpoint(block[0, :, 0].tolist())
    spy = _count_fsum(monkeypatch)
    assert _exact_sums(block).tobytes() == np.array([[want]]).tobytes()
    assert len(spy) == calls


def test_only_columns_with_a_remainder_reach_fsum(monkeypatch):
    """Random probability columns, some on exact midpoints (their entries
    hold few bits), and one column with a remainder: that one column takes
    the only fsum call."""
    stream = LcgStream(derive_rng_state(8, 8))
    blocks = _random_blocks(stream, 200, 8, 3, one_hot=False)
    blocks[17, :3, 1] = (0.75, 2.0 ** -54, 2.0 ** -107)
    blocks[17, 3:, 1] = 0.0
    ties = sum(_is_midpoint(blocks[i, :, c].tolist()) for i in range(200) for c in range(3))
    assert ties > 10
    want = _fsum_columns(blocks)
    spy = _count_fsum(monkeypatch)
    assert _exact_sums(blocks).tobytes() == want.tobytes()
    assert len(spy) == 1


def _edge_values(stream, kind, count):
    """count values in [-1, 1] of one kind: 1 - 2^-53 of either sign, signed
    zeros, subnormals, full-precision values near -1 or near 1, or any."""
    def sign():
        return (1.0, -1.0)[stream.next_below(2)]
    draw = {
        "one-minus-u": lambda: sign() * (1.0 - U),
        "zeros": lambda: sign() * 0.0,
        "subnormal": lambda: sign() * (1 + stream.next_below(1 << 30)) * 2.0 ** -1074,
        "near-minus-one": lambda: -1.0 + stream.next_unit() / 2 + stream.next_unit() * 2.0 ** -33,
        "near-one": lambda: 1.0 - stream.next_unit() / 2 - stream.next_unit() * 2.0 ** -33,
    }
    if kind == "mixed":
        kinds = list(draw)
        return [draw[kinds[stream.next_below(len(kinds))]]() for _ in range(count)]
    return [draw[kind]() for _ in range(count)]


@pytest.mark.parametrize("q", [1, 2, 3, 7, 64, 1000])
def test_exact_sums_of_edge_entries_equal_fsum(q):
    """Columns of one kind of entry each, and mixed ones, at q from 1 to
    1,000. Same-sign entries near -1 fill the high parts' grid to its size
    bound q, the case the choice of sigma = 2^M >= q covers."""
    stream = LcgStream(derive_rng_state(9, q))
    kinds = ["one-minus-u", "zeros", "subnormal", "near-minus-one", "near-one", "mixed"]
    columns = [_edge_values(stream, kind, q) for kind in kinds for _ in range(4)]
    blocks = np.array(columns).reshape(len(kinds), 4, q).transpose(0, 2, 1)
    assert _exact_sums(blocks).tobytes() == _fsum_columns(blocks).tobytes()


@pytest.mark.parametrize("scale", [1e-14, 1e-100, 2.0 ** -1021, 1e-310])
def test_exact_sums_of_small_entries_equal_fsum(scale):
    """Entries far below the absolute bounds of the split, of either sign,
    down to subnormals: the columns the tests leave undecided still sum to
    fsum's bits."""
    stream = LcgStream(derive_rng_state(10, int(-math.log2(scale))))
    units = np.array(_signed_units(stream, 30 * 16 * 2)).reshape(30, 16, 2)
    blocks = units * scale
    blocks[:, :, 0] = np.abs(blocks[:, :, 0])
    assert _exact_sums(blocks).tobytes() == _fsum_columns(blocks).tobytes()


def test_small_entries_that_cancel_below_the_normal_range_equal_fsum():
    """Entries near 2^-900 whose sum cancels to a subnormal, or to a float
    just above 2^-1022."""
    stream = LcgStream(derive_rng_state(11, 11))
    columns = []
    for _ in range(40):
        big = _signed_units(stream, 1)[0] * 2.0 ** -900
        tail = (1 + stream.next_below(1 << 30)) * 2.0 ** -1074 + 2.0 ** -1022 * stream.next_below(2)
        columns.append([big, tail, 0.0, -big])
    blocks = np.array(columns)[:, :, None]
    assert _exact_sums(blocks).tobytes() == _fsum_columns(blocks).tobytes()


def test_rounding_test_holds_against_the_worst_low_sums():
    """One column, q = 64: 0.5 and 63 low parts (entries below L = 2^(M-53),
    M = 6, so their high parts are 0) chosen so that each floating-point
    step of the low sum c rounds down by almost half an ulp, and the last
    one leaves the TwoSum residual of 0.5 + c short of half an ulp of the
    total by rho. The exact sum lies above that midpoint, so the total
    rounds wrong and the rounding test must not pass it. rho is within the
    bound but beyond a quarter of it: a bound four times smaller would."""
    q, exponent = 64, 6
    low_cap = Fraction(2) ** (exponent - 53)
    unit = Fraction(2) ** -53 * low_cap
    bound = unit * q * (q + 1) / 2

    lows, computed, error = [7 * low_cap / 8], 7 * low_cap / 8, Fraction(0)
    for k in range(3, q + 1):
        target = computed + 9 * low_cap / 10
        # The float spacing in target's binade, and the grid point g below it.
        step = Fraction(2) ** (math.floor(math.log2(target)) - 52)
        g = math.floor(target / step) * step
        if k == q:
            # The last computed sum c puts the residual of 0.5 + c at half an
            # ulp of the total less rho: 0.5 + c = total + 2^-54 - rho.
            rho = 12 * step
            ulp = Fraction(2) ** -53
            g = math.floor((target - ulp / 2 + rho) / ulp) * ulp + ulp / 2 - rho
        # Just under the midpoint above g: rounds down to g by step/2 - unit.
        t = g + step / 2 - unit
        lows.append(t - computed)
        error += t - g
        computed = g
    assert all(0 < low < low_cap and Fraction(float(low)) == low for low in lows)
    assert bound / 4 < rho < error < bound
    column = [0.5] + [float(low) for low in lows]
    # The float sum of the low parts in atom order is the simulated one.
    c = 0.0
    for low in column[1:]:
        c += low
    assert Fraction(c) == computed
    total = 0.5 + c
    assert Fraction(0.5) + Fraction(c) - Fraction(total) == Fraction(2) ** -54 - rho
    want = math.fsum(column)
    assert want == math.nextafter(total, math.inf)
    assert _exact_sums(np.array(column).reshape(1, q, 1))[0, 0] == want


def test_desk_commands_make_no_fsum_calls_in_exact_sums(desk, monkeypatch, tmp_path):
    """On the seed-11 desk no column of certify's means or of SHAP's gains
    is left to math.fsum by _exact_sums."""
    inside, calls = [False], []
    real_fsum, real_exact = math.fsum, smoothing._exact_sums

    def fsum(values):
        calls.append(inside[0])
        return real_fsum(values)

    def exact(blocks):
        inside[0] = True
        try:
            return real_exact(blocks)
        finally:
            inside[0] = False

    monkeypatch.setattr(math, "fsum", fsum)
    monkeypatch.setattr(smoothing, "_exact_sums", exact)
    sums = []
    for command in ("certify-l4", "explain-shap"):
        argv, _rows = DESK_BASE_ROWS[command]
        calls.clear()
        assert cli.main([argv[0], "--model", desk["model_path"], "--data", desk["test_path"],
                         "--out", str(tmp_path / command), "--q", "16", "--seed", "11",
                         *argv[1:]]) == 0
        sums.append(calls.count(True))
    assert sums == [0, 0]


# ------------------------------------------------------------ argmax and gap

TIED_ROWS = [
    (0.4, 0.4, 0.2), (0.2, 0.4, 0.4), (0.4, 0.2, 0.4), (1 / 3, 1 / 3, 1 / 3),
    (0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0), (0.25, 0.5, 0.25), (0.6, 0.2, 0.2),
]


def test_array_argmax_and_gap_equal_the_scalar_loop_on_ties():
    classes, gaps = top_classes_and_gaps(np.array(TIED_ROWS))
    for row, c, gap in zip(TIED_ROWS, classes.tolist(), gaps.tolist()):
        want_class, want_gap = top_class_and_gap(row)
        assert (c, gap.hex()) == (want_class, want_gap.hex())


# ------------------------------------------------------------------- dedup

@pytest.mark.parametrize("n", [5, 61, 63, 64, 70, 130])
def test_unique_masks_pairs_rows_with_keys_at_any_width(n):
    stream = LcgStream(derive_rng_state(n, 3))
    base = np.array([[stream.next_below(2) for _ in range(n)] for _ in range(6)],
                    dtype=np.uint8)
    picks = [stream.next_below(6) for _ in range(60)]
    masks = base[picks]
    keys = np.array([stream.next_below(8) for _ in picks])
    words = masks @ smoothing._bit_weights(n)
    assert words.shape == (len(masks), -(-n // 64))
    assert all(int(words[r, i // 64]) >> (i % 64) & 1 == masks[r, i]
               for r in range(len(masks)) for i in range(n))
    assert (smoothing._unpack_words(words, n) == masks).all()
    # The driver's key: the mask, then the 3-bit index in the bits above it,
    # which straddle two words at n = 63.
    index = (keys[:, None] >> np.arange(3) & 1).astype(np.uint8)
    packed = np.concatenate((masks, index), axis=1) @ smoothing._bit_weights(n + 3)
    assert packed.shape == (len(masks), -(-(n + 3) // 64))
    assert all(int(packed[r, (n + i) // 64]) >> ((n + i) % 64) & 1 == index[r, i]
               for r in range(len(masks)) for i in range(3))
    assert (smoothing._unpack_words(packed, n) == masks).all()
    if n + 3 <= 64:
        # The desk's layout: one word, the index shifted above the mask bits.
        assert (packed[:, 0] == keys.astype(np.uint64) << np.uint64(n) | words[:, 0]).all()
    for name, cols in {"masks": words.T, "packed": packed.T}.items():
        rep, inverse = smoothing._distinct(cols)
        assert (masks[rep][inverse] == masks).all()
        pairs = {(0 if name == "masks" else int(keys[r]), masks[r].tobytes())
                 for r in range(len(masks))}
        assert len(rep) == len(pairs)
        if name != "masks":
            assert (keys[rep][inverse] == keys).all()


def _sorted_tuples(keys):
    """(rep, inverse) of _distinct's contract from sorted Python tuples: the
    last word of the (W, K) keys sorts first, as in np.lexsort; rep[j] is
    the first column holding key j."""
    rows = [tuple(int(word[r]) for word in reversed(keys)) for r in range(keys.shape[1])]
    tuples = sorted(set(rows))
    return [rows.index(t) for t in tuples], [tuples.index(row) for row in rows]


def _distinct_cases():
    """(W, K) uint64 keys, K keys of W words, and whether _distinct lexsorts them."""
    stream = LcgStream(derive_rng_state(5, 9))
    draws = np.array([stream.next_below(5) for _ in range(3 * 40)], dtype=np.uint64)
    return {
        "one-column": (draws[None, :40] * np.uint64(1 << 40), False),
        "three-columns": (draws.reshape(3, 40), True),
        "empty": (np.empty((1, 0), dtype=np.uint64), False),
        "empty-three": (np.empty((3, 0), dtype=np.uint64), True),
        "one-row": (np.array([[2 ** 63 + 5]], dtype=np.uint64), False),
        "all-equal": (np.full((1, 33), 7, dtype=np.uint64), False),
        "all-equal-three": (np.full((3, 33), 7, dtype=np.uint64), True),
        # Five keys take 3 column bits: keys of 61 bits pack into 64, of 62 do not.
        "64-bits": (np.array([[2 ** 61 - 1, 3, 2 ** 61 - 1, 0, 3]], dtype=np.uint64), False),
        "65-bits": (np.array([[2 ** 61, 3, 2 ** 61, 0, 3]], dtype=np.uint64), True),
    }


@pytest.mark.parametrize("case", list(_distinct_cases()))
def test_distinct_reps_are_first_rows_and_tuples_go_in_sort_order(monkeypatch, case):
    keys, sorts_columns = _distinct_cases()[case]
    lexsorts = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: lexsorts.append(len(k)) or real(k))
    rep, inverse = smoothing._distinct(keys)
    want_rep, want_inverse = _sorted_tuples(keys)
    assert rep.tolist() == want_rep and inverse.tolist() == want_inverse
    assert rep.dtype == inverse.dtype == np.intp
    # A one-word key packs with the column numbers unless the two need
    # more than 64 bits; wider keys go through lexsort.
    assert bool(lexsorts) == sorts_columns


# ------------------------------------------------------------ pair driver

class EvaluateOnly:
    """A classifier with evaluate only, counting its calls."""

    def __init__(self, inner):
        self.inner, self.d, self.m = inner, inner.d, inner.m
        self.calls = 0

    def evaluate(self, x):
        self.calls += 1
        return scalar_probs(self.inner, x)


def _driver_instance(n, batch=True, seed=3):
    base = random_mlp(n, 4, 3, seed) if seed % 2 else random_linear(n, 3, seed)
    cfg = SmoothingConfig(q=8, lambda_num=3, seed=seed, n=n)
    handle = base if batch else EvaluateOnly(base)
    model = SmoothedModel.build(handle, FeatureGrouping.trivial(n), cfg)
    stream = LcgStream(derive_rng_state(seed, 8))
    xs = np.array([[4.0 * stream.next_unit() - 2.0 for _ in range(n)] for _ in range(7)])
    examples = [stream.next_below(7) for _ in range(40)]
    alphas = [tuple(stream.next_below(2) for _ in range(n)) for _ in examples]
    mus = np.array([[stream.next_below(2) for _ in range(n)] for _ in range(7)],
                   dtype=np.uint8)
    return model, xs, examples, alphas, mus


def _sort_keys(monkeypatch):
    """The number of key columns of each smoothing._distinct call."""
    widths = []
    real = smoothing._distinct

    def spy(keys):
        widths.append(len(keys))
        return real(keys)

    monkeypatch.setattr(smoothing, "_distinct", spy)
    return widths


# The seven examples of _driver_instance take 3 bits above the n mask bits,
# and a key is the ceil((n + 3) / 64) words that hold both: one up to n = 61,
# two up to 125, three at 127. One example takes 0 bits: one word up to n = 64.
WIDTHS = [5, 47, 63, 64, 70, 127]


def _key_columns(n, index_bits=3):
    return -(-(n + index_bits) // 64)


@pytest.mark.parametrize("chunk", [24, 4096], ids=["24-pair-windows", "one-window"])
@pytest.mark.parametrize("batch", [True, False], ids=["evaluate_batch", "evaluate-only"])
@pytest.mark.parametrize("n", WIDTHS)
def test_pair_driver_equals_one_example_path(monkeypatch, chunk, batch, n):
    monkeypatch.setattr(smoothing, "DRIVER_CHUNK", chunk)
    widths = _sort_keys(monkeypatch)
    model, xs, examples, alphas, mus = _driver_instance(n, batch, seed=n)
    for with_mu in (False, True):
        widths.clear()
        got = mus_evaluate_pairs(model, xs, examples, alphas, mus if with_mu else None)
        assert set(widths) == {_key_columns(n)}
        for row, e, alpha in zip(got.tolist(), examples, alphas):
            one = model.with_mu(tuple(mus[e].tolist())) if with_mu else model
            assert tuple(row) == mus_evaluate(one, tuple(xs[e].tolist()), alpha)
    # The model's own mu applies when no per-example mu is given, with the
    # bits of that mask passed as every example's mus.
    shielded = model.with_mu(tuple(mus[0].tolist()))
    widths.clear()
    got = mus_evaluate_pairs(shielded, xs, examples, alphas)
    assert set(widths) == {_key_columns(n)}
    assert [tuple(row) for row in got.tolist()] == [
        mus_evaluate(shielded, tuple(xs[e].tolist()), a) for e, a in zip(examples, alphas)]
    same = mus_evaluate_pairs(model, xs, examples, alphas, np.repeat(mus[:1], len(xs), axis=0))
    assert mus[0].any() and got.tobytes() == same.tobytes()
    # One example takes the same key layout, with no index bits.
    for one, mu_rows in ((model, None), (shielded, None), (shielded, mus[:1])):
        widths.clear()
        got = mus_evaluate_pairs(one, xs[:1], [0] * len(alphas), alphas, mu_rows)
        assert set(widths) == {_key_columns(n, 0)}
        assert [tuple(row) for row in got.tolist()] == [
            mus_evaluate(one, tuple(xs[0].tolist()), a) for a in alphas]


@pytest.mark.parametrize("with_mu", [False, True], ids=["no-mu", "mu"])
@pytest.mark.parametrize("n", WIDTHS)
def test_evaluate_only_handle_sees_each_distinct_pair_once(n, with_mu):
    model, xs, examples, alphas, mus = _driver_instance(n, batch=False, seed=n + 1)
    if not with_mu:
        mus[:] = 0
    # Every pair twice, so that wide masks repeat too.
    examples, alphas = examples * 2, alphas * 2
    mus_evaluate_pairs(model, xs, examples, alphas, mus if with_mu else None)
    distinct = {(e, (mus[e] | (np.array(a, dtype=np.uint8) & atom)).tobytes())
                for e, a in zip(examples, alphas) for atom in model.atoms}
    assert model.base.calls == len(distinct) < len(examples) * model.cfg.q


class BatchSpy:
    """A classifier with evaluate_batch, recording the rows of each call."""

    def __init__(self, inner):
        self.inner, self.d, self.m = inner, inner.d, inner.m
        self.batches = []

    def evaluate(self, x):
        return self.inner.evaluate(x)

    def evaluate_batch(self, z):
        self.batches.append(len(z))
        return self.inner.evaluate_batch(z)


def _distinct_rows(model, examples, alphas, mus):
    """The distinct (example, effective mask) rows of these pairs."""
    return len({(e, (mus[e] | (np.array(a, dtype=np.uint8) & atom)).tobytes())
                for e, a in zip(examples, alphas) for atom in model.atoms})


@pytest.mark.parametrize("with_mu", [False, True], ids=["no-mu", "mu"])
@pytest.mark.parametrize("n", [5, 70])
def test_window_rows_go_in_forward_calls_of_at_most_driver_chunk(monkeypatch, n, with_mu):
    """40 pairs in windows of 16: a window's distinct rows go to the base in
    ceil(distinct / 16) calls, the last one short, and some window needs
    more than one call."""
    chunk = 16
    monkeypatch.setattr(smoothing, "DRIVER_CHUNK", chunk)
    model, xs, examples, alphas, mus = _driver_instance(n, seed=n)
    if not with_mu:
        mus[:] = 0
    spy = BatchSpy(model.base)
    model = SmoothedModel.build(spy, model.grouping, model.cfg)
    got = mus_evaluate_pairs(model, xs, examples, alphas, mus if with_mu else None)
    windows = [_distinct_rows(model, examples[lo:lo + chunk], alphas[lo:lo + chunk], mus)
               for lo in range(0, len(examples), chunk)]
    assert len(windows) == 3 and max(windows) > chunk
    calls = [[chunk] * (rows // chunk) + [rows % chunk] * (rows % chunk > 0) for rows in windows]
    assert spy.batches == sum(calls, [])
    for row, e, alpha in zip(got.tolist(), examples, alphas):
        one = model.with_mu(tuple(mus[e].tolist())) if with_mu else model
        assert tuple(row) == mus_evaluate(one, tuple(xs[e].tolist()), alpha)


@pytest.mark.parametrize("q", [24, 64, 200])
def test_window_holds_at_most_16_driver_chunks_of_effective_rows_above_q_16(monkeypatch, q):
    """With DRIVER_CHUNK = 8 a window holds min(8, 128 // q) pairs, and at
    least one: at q = 24 and 64 no sort sees more than 16 * 8 effective
    rows, at q = 200 one pair's 200. No forward call exceeds 8 rows."""
    chunk = 8
    monkeypatch.setattr(smoothing, "DRIVER_CHUNK", chunk)
    rows = []
    real = smoothing._distinct

    def spy_distinct(keys):
        rows.append(len(keys[0]))
        return real(keys)

    monkeypatch.setattr(smoothing, "_distinct", spy_distinct)
    model, xs, examples, alphas, mus = _driver_instance(5, seed=5)
    spy = BatchSpy(model.base)
    model = SmoothedModel.build(spy, model.grouping, SmoothingConfig(q=q, lambda_num=3, seed=5, n=5))
    got = mus_evaluate_pairs(model, xs, examples, alphas, mus)
    step = max(1, 16 * chunk // q)
    assert rows == [q * len(examples[lo:lo + step]) for lo in range(0, len(examples), step)]
    assert max(rows) <= max(16 * chunk, q) and max(spy.batches) <= chunk
    for row, e, alpha in zip(got.tolist(), examples, alphas):
        one = model.with_mu(tuple(mus[e].tolist()))
        assert tuple(row) == mus_evaluate(one, tuple(xs[e].tolist()), alpha)


@pytest.mark.parametrize("n", [5, 70])
def test_window_dedups_repeats_more_than_driver_chunk_over_q_pairs_apart(monkeypatch, n):
    """20 pairs, then the same 20 again, in one window of 64 pairs: the
    copies of a pair sit 20 pairs apart, more than 64 // q = 8, yet the
    evaluate-only handle sees each distinct row once."""
    monkeypatch.setattr(smoothing, "DRIVER_CHUNK", 64)
    model, xs, examples, alphas, mus = _driver_instance(n, batch=False, seed=n + 2)
    mus[:] = 0
    examples, alphas = examples[:20] * 2, alphas[:20] * 2
    mus_evaluate_pairs(model, xs, examples, alphas)
    step = 64 // model.cfg.q
    # In chunks of 64 // q pairs the copies fall apart and go out twice.
    chunked = sum(_distinct_rows(model, examples[lo:lo + step], alphas[lo:lo + step], mus)
                  for lo in range(0, len(examples), step))
    assert model.base.calls == _distinct_rows(model, examples, alphas, mus) < chunked


class RowSpy:
    """A classifier with evaluate_batch, recording the bytes of every row
    it receives."""

    def __init__(self, inner):
        self.inner, self.d, self.m = inner, inner.d, inner.m
        self.rows = []

    def evaluate(self, x):
        return self.inner.evaluate(x)

    def evaluate_batch(self, z):
        self.rows += [row.tobytes() for row in np.asarray(z)]
        return self.inner.evaluate_batch(z)


def _attack_instance(n, with_mu, seed, examples=5):
    """A RowSpy-wrapped linear model and inputs with no zero entry, so that a
    nonzero masked row names its example and mask; masks with about half
    their bits on, and budgets of at most 3 free bits."""
    cfg = SmoothingConfig(q=8, lambda_num=3, seed=seed, n=n)
    model = SmoothedModel.build(RowSpy(random_linear(n, 3, seed, scale=2.0)),
                                FeatureGrouping.trivial(n), cfg)
    stream = LcgStream(derive_rng_state(seed, 9))
    if with_mu:
        model = model.with_mu(tuple(int(stream.next_below(4) == 0) for _ in range(n)))
    xs = np.array([[(1 + stream.next_unit()) * (-1) ** stream.next_below(2) for _ in range(n)]
                   for _ in range(examples)])
    phis = [tuple(stream.next_below(2) for _ in range(n)) for _ in range(examples)]
    budgets = [min(3, n - sum(phi)) for phi in phis]
    return model, xs, phis, budgets


def _effective_rows(model, examples, alphas):
    """The distinct (example, effective mask) rows of these pairs under the
    model's mu."""
    mu = np.array(model.mu or (0,) * model.n, dtype=np.uint8)
    return {(int(e), (mu | (np.array(a, dtype=np.uint8) & atom)).tobytes())
            for e, a in zip(examples, alphas) for atom in model.atoms}


@pytest.mark.parametrize("with_mu", [False, True], ids=["no-mu", "mu"])
@pytest.mark.parametrize("n", [5, 70])
def test_attack_walks_send_each_masked_input_of_an_example_once(monkeypatch, n, with_mu):
    """One attack_walks call over several examples and steps, in windows of
    16 pairs: its driver passes share one memo, so the base sees each
    (example, masked input) once, fewer rows than the passes' distinct rows
    add up to, and every walk equals the reference walk bit for bit."""
    monkeypatch.setattr(smoothing, "DRIVER_CHUNK", 16)
    passes = []
    real = attack._pair_means

    def spy(model, xs, examples, alphas, mus, memo=None):
        passes.append(_effective_rows(model, examples, alphas))
        return real(model, xs, examples, alphas, mus, memo)

    monkeypatch.setattr(attack, "_pair_means", spy)
    model, xs, phis, budgets = _attack_instance(n, with_mu, seed=n + 3)
    count = len(xs)
    walks = attack_walks(model, xs, list(range(count)) * 2, phis * 2, budgets * 2,
                         ["inc"] * count + ["dec"] * count)
    assert len(passes) >= 3
    sent = model.base.rows
    want = [np.where(np.frombuffer(mask, dtype=np.uint8) != 0, xs[e], 0.0).tobytes()
            for e, mask in set().union(*passes)]
    assert sorted(sent) == sorted(want)
    assert len(sent) < sum(map(len, passes))
    rows = [tuple(x) for x in xs.tolist()]
    assert [(w.found, w.radius, w.witness) for w in walks] == [
        greedy_walk(model, x, phi, b, mode) for mode in ("inc", "dec")
        for x, phi, b in zip(rows, phis, budgets)]


@pytest.mark.parametrize("n", [5, 70])
def test_attack_walks_results_do_not_depend_on_other_examples(n):
    """Walks over all examples in one call equal walks on each example
    alone. Examples 0 and 1 have identical inputs and masks; 2 and 3 have
    different inputs under the same mask, so their effective masks collide
    and only the example index keeps their base outputs apart."""
    model, xs, phis, budgets = _attack_instance(n, False, seed=n + 2, examples=6)
    xs[1], phis[1], budgets[1] = xs[0], phis[0], budgets[0]
    phis[3], budgets[3] = phis[2], budgets[2]
    count = len(xs)
    examples, modes = list(range(count)) * 2, ["inc"] * count + ["dec"] * count
    walks = attack_walks(model, xs, examples, phis * 2, budgets * 2, modes)
    alone = [attack_walks(model, xs[e:e + 1], [0], [phis[e]], [budgets[e]], [mode])[0]
             for e, mode in zip(examples, modes)]
    assert walks == alone
    assert walks[0] == walks[1] and walks[count] == walks[count + 1]
    assert (walks[2], walks[count + 2]) != (walks[3], walks[count + 3])


def test_pair_driver_rejects_bad_pairs():
    model, xs, examples, alphas, mus = _driver_instance(5)
    with pytest.raises(smoothing.ConfigError, match=r"need one example index in \[0, 7\)"):
        mus_evaluate_pairs(model, xs, [7] * len(alphas), alphas)
    # Indices that are not integers raise instead of being truncated.
    for indices, bad in (([0.7, 1.2], r"0\.7"), ([0, 1.5], r"1\.5"), ([1.0, 2.0], r"1\.0"),
                         (np.array([1.0, 2.0]), r"1\.0"), ([True, False], "True")):
        with pytest.raises(smoothing.ConfigError,
                           match=f"^example index must be an integer, got {bad}$"):
            mus_evaluate_pairs(model, xs, indices, alphas[:2])
    with pytest.raises(smoothing.ConfigError, match="need one example index"):
        mus_evaluate_pairs(model, xs, examples[:-1], alphas)
    with pytest.raises(smoothing.ConfigError, match="got 6 noise-exempt masks for 7"):
        mus_evaluate_pairs(model, xs, examples, alphas, mus[:6])
    with pytest.raises(smoothing.ConfigError,
                       match=r"^input rows of shape \(7, 4\) are not \(k, d=5\)$"):
        mus_evaluate_pairs(model, xs[:, :4], examples, alphas)


# ------------------------------------------------------- shared-mask grid

class ConstantBatch:
    """Returns the same probability vector for every input, one row per
    input of a batch too."""

    def __init__(self, probs, d):
        self.probs, self.d, self.m = tuple(probs), d, len(probs)

    def evaluate(self, x):
        return self.probs

    def evaluate_batch(self, z):
        return np.tile(self.probs, (len(z), 1))


def _grid_instance(case):
    """(model, xs, alphas) for _grid_means: random linear and MLP models, a
    handle with only evaluate, the exact-tie lookup tables over every input
    and every mask, grouped features with a model mu, and n = 70, whose
    masks take two words."""
    if case in ("xor", "one-hot", "grouped-mu"):
        model, xs, phis = _handoff_instance(case)
        if case == "grouped-mu":
            return model, xs, phis[:9]
        return model, xs, np.array(list(product((0, 1), repeat=model.n)), dtype=np.uint8)
    n, batch, seed = {"linear": (6, True, 4), "mlp": (6, True, 3),
                      "evaluate-only": (6, False, 5), "n70": (70, True, 70)}[case]
    model, xs, _examples, alphas, _mus = _driver_instance(n, batch, seed)
    return model, xs, np.array(alphas[:9], dtype=np.uint8)


GRID_CASES = ["linear", "mlp", "evaluate-only", "xor", "one-hot", "grouped-mu", "n70"]


def _tiled_pairs(model, xs, alphas):
    """mus_evaluate_pairs on every (example, alpha) pair, as (E, A, m)."""
    count = len(xs)
    means = mus_evaluate_pairs(model, xs, np.repeat(np.arange(count), len(alphas)),
                               np.tile(alphas, (count, 1)))
    return means.reshape(count, len(alphas), model.m)


def _shared_masks(model, alphas):
    """G, the number of distinct effective masks (atom AND alpha) OR mu."""
    mu = np.array(model.mu or (0,) * model.n, dtype=np.uint8)
    return len({(mu | (alpha & atom)).tobytes() for alpha in alphas for atom in model.atoms})


def _spy_forward_calls(monkeypatch):
    """The row count of every smoothing.evaluate_rows call."""
    calls = []
    real = smoothing.evaluate_rows
    monkeypatch.setattr(smoothing, "evaluate_rows",
                        lambda base, inputs: calls.append(len(inputs)) or real(base, inputs))
    return calls


@pytest.mark.parametrize("chunk", [4096, 16], ids=["one-block", "16-row-blocks"])
@pytest.mark.parametrize("case", GRID_CASES)
def test_grid_means_equal_the_tiled_pairs(monkeypatch, case, chunk):
    """All the examples, one mask, one example and none: the bits of the
    pair driver, from E * G base rows in forward calls of at most
    DRIVER_CHUNK rows. At 16 rows every case needs several blocks."""
    monkeypatch.setattr(smoothing, "DRIVER_CHUNK", chunk)
    calls = _spy_forward_calls(monkeypatch)
    model, xs, alphas = _grid_instance(case)
    for rows, masks in ((xs, alphas), (xs, alphas[:1]), (xs[:1], alphas), (xs[:0], alphas)):
        calls.clear()
        got = smoothing._grid_means(model, rows, masks)
        assert sum(calls) == len(rows) * _shared_masks(model, masks)
        assert max(calls, default=0) <= chunk
        assert got.shape == (len(rows), len(masks), model.m)
        assert got.tobytes() == _tiled_pairs(model, rows, masks).tobytes()
    assert chunk == 4096 or len(xs) * _shared_masks(model, alphas) > chunk


@pytest.mark.parametrize("q", [32, 64])
def test_grid_windows_and_blocks_keep_their_bounds(monkeypatch, q):
    """With DRIVER_CHUNK = 8 the alphas go in windows of 128 // q, so no
    sort sees more than 128 effective masks; where a window's G passes 8,
    each example is a block of its own whose G rows go in calls of at most 8;
    every sum sees at most 128 (example, alpha, atom) entries, gathered
    atom-major; and the means are the pair driver's bits."""
    chunk = 8
    monkeypatch.setattr(smoothing, "DRIVER_CHUNK", chunk)
    calls = _spy_forward_calls(monkeypatch)
    windows, sums = [], []
    real_distinct, real_means = smoothing._distinct, smoothing._atom_means

    def spy_distinct(keys):
        rep, inverse = real_distinct(keys)
        windows.append((len(keys[0]), len(rep)))
        return rep, inverse

    def spy_means(blocks):
        sums.append((blocks.shape, blocks.transpose(1, 0, 2).flags.c_contiguous))
        return real_means(blocks)

    monkeypatch.setattr(smoothing, "_distinct", spy_distinct)
    monkeypatch.setattr(smoothing, "_atom_means", spy_means)
    model, xs, _examples, alphas, _mus = _driver_instance(5, seed=5)
    model = SmoothedModel.build(model.base, model.grouping,
                                SmoothingConfig(q=q, lambda_num=q // 2, seed=5, n=5))
    alphas = np.array(alphas[:9], dtype=np.uint8)
    got = smoothing._grid_means(model, xs, alphas)
    step = 16 * chunk // q
    assert [keys for keys, _ in windows] == [q * len(alphas[lo:lo + step])
                                            for lo in range(0, len(alphas), step)]
    shared = [g for _, g in windows]
    assert max(shared) > chunk and max(calls) <= chunk
    assert sum(calls) == len(xs) * sum(shared)
    assert max(k * atoms for (k, atoms, _m), _ in sums) <= 16 * chunk
    assert all(atom_major for _, atom_major in sums)
    assert got.tobytes() == _tiled_pairs(model, xs, alphas).tobytes()


@pytest.mark.parametrize("handle,message", [
    (ConstantHandle((0.5, 0.5, 0.5), 6), r"^probabilities sum to 1\.5, not 1$"),
    (ConstantBatch((1.5, -0.5, 0.0), 6), r"^probability 1\.5 outside \[0, 1\]$"),
], ids=["evaluate-only", "evaluate_batch"])
def test_grid_checks_the_probability_contract_as_the_pair_driver_does(handle, message):
    model, xs, alphas = _grid_instance("linear")
    model = SmoothedModel.build(handle, model.grouping, model.cfg)
    with pytest.raises(ConfigError, match=message):
        _tiled_pairs(model, xs, alphas)
    with pytest.raises(ConfigError, match=message):
        smoothing._grid_means(model, xs, alphas)


def test_grid_memory_does_not_grow_with_the_examples():
    """Desk-shaped occlusion (d = n = 16, m = 3, q = 16, lambda 4): from 200
    to 2000 examples the stage's peak grows by less than its results, the
    (n + 1) * m grid means and two n-wide score arrays per example. The
    tiled pairs of the pair driver grew it by more than five times that."""
    cfg = SmoothingConfig(q=16, lambda_num=4, seed=11, n=16)
    model = SmoothedModel.build(random_linear(16, 3, 5), FeatureGrouping.trivial(16), cfg)
    stream = LcgStream(derive_rng_state(11, 4))
    xs = np.array([[4.0 * stream.next_unit() - 2.0 for _ in range(16)] for _ in range(2000)])
    peaks = []
    for count in (200, 2000):
        attribution.occlusion_score_rows(model, xs[:count])
        tracemalloc.start()
        try:
            attribution.occlusion_score_rows(model, xs[:count])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1800 * (17 * 3 + 2 * 16) * 8


# --------------------------------------------------------- staged commands

def _mask_met_pairs(staged):
    """greedy_stable_masks' (masks, met) arrays as one (mask, met) pair per
    example, as greedy_prefix gives them."""
    masks, met = staged
    assert masks.dtype == np.uint8 and met.dtype == bool and len(masks) == len(met)
    return list(zip(map(tuple, masks.tolist()), met.tolist()))


def test_staged_certify_greedy_and_attack_equal_one_example_calls(monkeypatch):
    """An instance where some greedy targets are met and some not, and the
    attack walks end at different steps, found or not."""
    monkeypatch.setattr(smoothing, "DRIVER_CHUNK", 40)
    cfg = SmoothingConfig(q=8, lambda_num=1, seed=4, n=6)
    model = SmoothedModel.build(random_linear(6, 3, 4, scale=2.0),
                                FeatureGrouping.trivial(6), cfg)
    stream = LcgStream(derive_rng_state(4, 8))
    xs = np.array([[3.0 * (2 * stream.next_unit() - 1) for _ in range(6)] for _ in range(7)])
    rows = [tuple(x) for x in xs.tolist()]
    phis = [tuple(stream.next_below(2) for _ in range(6)) for _ in rows]
    scores = [[stream.next_unit() for _ in range(6)] for _ in rows]
    mus = np.array(phis[::-1], dtype=np.uint8)

    records = certify_examples(model, xs, phis, range(7), mus=mus)
    assert records == [certify_example(model.with_mu(tuple(mus[e].tolist())), x, phi, e)
                       for e, (x, phi) in enumerate(zip(rows, phis))]

    for targets in ((0, 0), (1, 0), (0, 1), (1, 1)):
        staged = _mask_met_pairs(greedy_stable_masks(model, xs, scores, *targets))
        assert staged == [greedy_prefix(model, x, s, *targets) for x, s in zip(rows, scores)]
        assert targets == (0, 0) or {met for _, met in staged} == {True, False}

    budgets = [6 - sum(phi) for phi in phis]
    walks = attack_walks(model, xs, list(range(7)) * 2, phis * 2, budgets * 2,
                         ["inc"] * 7 + ["dec"] * 7)
    assert {w.found for w in walks} == {True, False}
    assert {w.radius for w in walks if w.found} == {1, 2}
    # A budget of one stops every walk after its first step: a flip found
    # there is kept, any later one is not reached.
    capped = attack_walks(model, xs, list(range(7)) * 2, phis * 2,
                          [min(1, b) for b in budgets] * 2, ["inc"] * 7 + ["dec"] * 7)
    for full, cut, budget in zip(walks, capped, budgets * 2):
        assert cut.radius == min(1, budget)
        assert cut.found == (full.found and full.radius == 1)
        assert cut.witness == (full.witness if cut.found else None)
    assert [(w.found, w.radius, w.witness) for w in walks] == [
        greedy_walk(model, x, phi, b, mode) for mode in ("inc", "dec")
        for x, phi, b in zip(rows, phis, budgets)]

    none = xs[:0]
    assert mus_evaluate_pairs(model, none, [], []).shape == (0, model.m)
    assert certify_examples(model, none, [], []) == []
    masks, met = greedy_stable_masks(model, none, [], 0, 0)
    assert masks.shape == (0, 6) and met.shape == (0,)
    assert attack_walks(model, none, [], [], [], []) == []


def _handoff_instance(case):
    """(model, xs, phis) for the stage hand-offs: random linear, MLP and
    grouped-with-mu instances with inconsistent examples among them, and the
    exact-tie lookup tables of test_certify over every input and mask, where
    some gaps at all-ones are 0."""
    if case in ("xor", "one-hot"):
        n = 2 if case == "xor" else 3
        handle = XorTable() if case == "xor" else OneHotTable((0, 1, 1, 0, 1, 0, 0, 1), 3)
        cfg = SmoothingConfig(q=2, lambda_num=1, seed=0, n=n)
        model = SmoothedModel.build(handle, FeatureGrouping.trivial(n), cfg)
        cube = list(product((0, 1), repeat=n))
        xs = np.array([x for x in cube for _ in cube], dtype=float)
        return model, xs, np.array([phi for _ in cube for phi in cube], dtype=np.uint8)
    stream = LcgStream(derive_rng_state(6, len(case)))
    if case == "grouped-mu":
        grouping = FeatureGrouping(groups=((0, 5), (1,), (2, 3), (4, 6, 7)), d=8)
        base = random_linear(8, 3, 6, scale=3.0)
    else:
        grouping = FeatureGrouping.trivial(6)
        base = random_linear(6, 3, 7, scale=3.0) if case == "linear" else random_mlp(6, 4, 3, 8)
    cfg = SmoothingConfig(q=8, lambda_num=2, seed=5, n=grouping.n)
    model = SmoothedModel.build(base, grouping, cfg)
    if case == "grouped-mu":
        model = model.with_mu((0, 1, 0, 0))
    xs = np.array([[3.0 * (2 * stream.next_unit() - 1) for _ in range(grouping.d)]
                   for _ in range(40)])
    phis = np.array([[stream.next_below(2) for _ in range(grouping.n)] for _ in xs],
                    dtype=np.uint8)
    return model, xs, phis


HANDOFF_CASES = ["linear", "mlp", "grouped-mu", "xor", "one-hot"]


@pytest.mark.parametrize("case", HANDOFF_CASES)
def test_certify_on_occlusion_means_equals_certify_examples(case):
    """The certify stage on the all-ones means that occlusion smoothed gives
    the columns of the stage that smooths them itself, bit for bit, and the
    record lines of certify_examples."""
    model, xs, phis = _handoff_instance(case)
    scores, ones_means = attribution.occlusion_score_rows(model, xs)
    ones = np.ones((1, model.n), dtype=np.uint8)
    assert ones_means.tobytes() == smoothing._grid_means(model, xs, ones)[:, 0].tobytes()
    for x, row in zip(xs, scores):
        assert np.array(attribution.occlusion_scores(model, x)).tobytes() == row.tobytes()
    want = certify_examples(model, xs, phis, range(len(xs)))
    got = certify._certify_stage(model, xs, phis, range(len(xs)), None, ones_means)
    assert repr(got) == repr(certify._certify_stage(model, xs, phis, range(len(xs)), None, None))
    assert got.json_lines() == [json.dumps(r.to_json_dict(), separators=(",", ":")) for r in want]
    assert {r.consistent for r in want} == {True, False}


@pytest.mark.parametrize("case", HANDOFF_CASES)
def test_attack_on_certificate_classes_equals_attack_walks(case):
    """Walks whose reference classes are the certificates' (masked_class for
    inc, pred_class for dec) equal attack_walks with its own reference pass."""
    model, xs, phis = _handoff_instance(case)
    count, n = len(xs), model.n
    records = certify_examples(model, xs, phis, range(count))
    budgets = [min(3, n - int(phi.sum())) for phi in phis]
    walks = (model, xs, list(range(count)) * 2, np.tile(phis, (2, 1)), budgets * 2,
             ["inc"] * count + ["dec"] * count)
    refs = [r.masked_class for r in records] + [r.pred_class for r in records]
    want = attack_walks(*walks)
    assert attack_walks(*walks, refs) == want
    assert {w.found for w in want} == {True, False}


def test_certify_examples_takes_any_batch_of_masks():
    """phis and mus as a uint8 array, a list of tuples or an int64 array
    give the same records."""
    cfg = SmoothingConfig(q=8, lambda_num=2, seed=5, n=5)
    model = SmoothedModel.build(random_linear(5, 3, 6, scale=2.0), FeatureGrouping.trivial(5), cfg)
    stream = LcgStream(derive_rng_state(5, 2))
    xs = np.array([[2 * stream.next_unit() - 1 for _ in range(5)] for _ in range(6)])
    phis = np.array([[stream.next_below(2) for _ in range(5)] for _ in xs], dtype=np.uint8)
    mus = phis[::-1] & phis
    want = [certify_examples(model, xs, phis, range(6)),
            certify_examples(model, xs, phis, range(6), mus=mus)]
    # mus exempt some groups of phi from noise, which moves their gaps.
    assert [r.gap_at_attr for r in want[0]] != [r.gap_at_attr for r in want[1]]
    for form in (lambda a: list(map(tuple, a.tolist())), lambda a: a.astype(np.int64)):
        assert certify_examples(model, xs, form(phis), range(6)) == want[0]
        assert certify_examples(model, xs, form(phis), range(6), mus=form(mus)) == want[1]


def test_stages_need_one_mask_id_and_score_row_per_example():
    """Inputs of mismatched lengths raise rather than dropping examples."""
    cfg = SmoothingConfig(q=4, lambda_num=2, seed=1, n=3)
    model = SmoothedModel.build(random_linear(3, 2, 5), FeatureGrouping.trivial(3), cfg)
    xs = np.array([[1.0, -0.5, 0.25], [0.0, 2.0, -1.0], [0.5, 0.5, 0.5]])
    phis = [(1, 0, 0), (0, 1, 1), (1, 1, 0)]
    for phi_count, id_count in ((2, 1), (1, 3), (3, 2), (4, 3)):
        with pytest.raises(ConfigError, match=(
                f"^need one mask and one id per example, got 3 examples, "
                f"{phi_count} masks and {id_count} ids$")):
            certify_examples(model, xs, (phis * 2)[:phi_count], range(id_count))
    scores = [(0.3, 0.2, 0.1)] * 4
    for rows in (1, 2, 4):
        with pytest.raises(ConfigError, match=f"^got {rows} score rows for 3 examples$"):
            greedy_stable_masks(model, xs, scores[:rows], 0, 0)
    with pytest.raises(ConfigError, match=r"^example 1 group 2: score inf is not finite$"):
        greedy_stable_masks(model, xs, [(0.3, 0.2, 0.1), (0.0, 1.0, math.inf), (1, 2, 3)], 0, 0)


# ------------------------------------------------------ greedy prefix walk

def _spy_pairs(monkeypatch):
    """The pair count of every mus_evaluate_pairs call the greedy stage makes."""
    sizes = []

    def spy(model, xs, examples, alphas, mus=None):
        sizes.append(len(examples))
        return mus_evaluate_pairs(model, xs, examples, alphas, mus)

    monkeypatch.setattr(attribution, "mus_evaluate_pairs", spy)
    return sizes


def _walk_instance(model, seed, rows, tie_levels):
    """Inputs in [-3, 3) and scores drawn from tie_levels values, so that
    most score rows hold ties."""
    stream = LcgStream(derive_rng_state(seed, 3))
    d, n = model.grouping.d, model.grouping.n
    xs = np.array([[3.0 * (2 * stream.next_unit() - 1) for _ in range(d)] for _ in range(rows)])
    scores = [[float(stream.next_below(tie_levels)) for _ in range(n)] for _ in range(rows)]
    return xs, scores


def _walk_round(length):
    """The lockstep round that decides on a prefix of this length."""
    return math.ceil(math.log2(length))


GROUPED = FeatureGrouping(groups=tuple((2 * g, 2 * g + 1) for g in range(5)) + ((10, 11, 12),),
                          d=13)


@pytest.mark.parametrize("case", ["linear-n16", "grouped-mlp-mu"])
def test_lockstep_greedy_walk_equals_reference_prefix_search(monkeypatch, case):
    """Batches whose examples are decided in every round of the walk, up to
    the full prefix n, against the one-example definitional search."""
    if case == "linear-n16":
        seed, lambdas, grouping = 3, (1, 4, 8), FeatureGrouping.trivial(16)
        base = random_linear(16, 3, seed, scale=2.0)
    else:
        seed, lambdas, grouping = 7, (4,), GROUPED
        base = random_mlp(13, 8, 3, seed, scale=1.5)
    n = grouping.n
    sizes = _spy_pairs(monkeypatch)
    lengths = set()
    for lambda_num in lambdas:
        cfg = SmoothingConfig(q=16, lambda_num=lambda_num, seed=seed, n=n)
        model = SmoothedModel.build(base, grouping, cfg)
        if case == "grouped-mlp-mu":
            model = model.with_mu((0, 0, 1, 0, 0, 0))
        xs, scores = _walk_instance(model, seed, 12 if n == 16 else 9, 4 if n == 16 else 3)
        assert any(len(set(row)) < n for row in scores)
        for targets in ((0, 0), (1, 0), (2, 1), (0, 99)):
            sizes.clear()
            staged = _mask_met_pairs(greedy_stable_masks(model, xs, scores, *targets))
            assert staged == [greedy_prefix(model, x, s, *targets)
                              for x, s in zip(xs.tolist(), scores)]
            assert len(sizes) <= _walk_round(n) + 1 and sizes[0] == 2 * len(xs)
            lengths |= {sum(mask) if met else 0 for mask, met in staged}
    assert 0 in lengths and n in lengths
    assert {_walk_round(length) for length in lengths - {0}} == set(range(_walk_round(n) + 1))

    sizes.clear()
    masks, met = greedy_stable_masks(model, xs[:0], [], 0, 0)
    assert masks.shape == (0, n) and met.shape == (0,)
    assert sizes == []


def test_greedy_on_the_desk_sends_at_most_three_pairs_per_example(desk, monkeypatch):
    """vgrad scores at lambda 4/16: most examples are decided on prefix 1,
    where the one-pass search smoothed all n + 1 masks of every example."""
    base = desk["model"]
    grouping = FeatureGrouping.trivial(16)
    cfg = SmoothingConfig(q=16, lambda_num=4, seed=11, n=16)
    model = SmoothedModel.build(base, grouping, cfg)
    xs = np.array([x for x, _ in desk["test"].examples])
    scores = gradient_score_rows(base, xs, grouping)
    sizes = _spy_pairs(monkeypatch)
    _masks, met = greedy_stable_masks(model, xs, scores, 0, 0)
    assert len(sizes) <= math.ceil(math.log2(16)) + 1
    assert sum(sizes) <= 3 * len(xs)
    assert met.all()


# The base rows each desk command sends through the smoothing driver (the
# conftest desk, --seed 11, q = 16): their count moves only when the pairs
# the commands smooth or the driver's dedup change, not with its speed.
DESK_BASE_ROWS = {
    "certify-l2": (("certify", "--lambda-num", "2", "--topk", "8"), 8271),
    "certify-l4": (("certify", "--lambda-num", "4", "--topk", "8"), 14800),
    "certify-l8": (("certify", "--lambda-num", "8", "--topk", "8"), 28368),
    "accuracy-l4": (("accuracy-curve", "--lambda-num", "4"), 2800),
    "certify-phi-l2": (("certify", "--lambda-num", "2", "--topk", "8",
                        "--mu-mode", "phi"), 8241),
    "attack-l4": (("attack", "--lambda-num", "4", "--topk", "8", "--budget", "4"), 29942),
    "explain-vgrad": (("explain", "--lambda-num", "4", "--scorer", "vgrad"), 3335),
    "explain-lime": (("explain", "--lambda-num", "4", "--scorer", "lime"), 3699),
    "explain-shap": (("explain", "--lambda-num", "4", "--scorer", "shap"), 3705),
}


@pytest.mark.parametrize("command", list(DESK_BASE_ROWS))
def test_desk_commands_send_pinned_base_rows(desk, monkeypatch, tmp_path, command):
    argv, rows = DESK_BASE_ROWS[command]
    sent = []
    real = smoothing.evaluate_rows
    monkeypatch.setattr(smoothing, "evaluate_rows",
                        lambda base, inputs: sent.append(len(inputs)) or real(base, inputs))
    code = cli.main([argv[0], "--model", desk["model_path"], "--data", desk["test_path"],
                     "--out", str(tmp_path / "out"), "--q", "16", "--seed", "11", *argv[1:]])
    assert code == 0 and sum(sent) == rows


def test_shared_mask_stages_do_not_use_the_pair_driver(desk, monkeypatch, tmp_path):
    """Occlusion and accuracy-curve smooth masks every example shares: they
    go through _grid_means, and neither reaches _pair_means."""
    calls = []
    real = smoothing._pair_means
    monkeypatch.setattr(smoothing, "_pair_means",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    cfg = SmoothingConfig(q=16, lambda_num=4, seed=11, n=16)
    model = SmoothedModel.build(desk["model"], FeatureGrouping.trivial(16), cfg)
    xs = np.array([x for x, _label in desk["test"].examples[:20]])
    attribution.occlusion_score_rows(model, xs)
    assert cli.main(["accuracy-curve", "--model", desk["model_path"], "--data", desk["test_path"],
                     "--out", str(tmp_path / "out"), "--q", "16", "--seed", "11",
                     "--lambda-num", "4"]) == 0
    assert calls == []
    mus_evaluate_pairs(model, xs, [0], [(1,) * 16])
    assert calls == [1]
