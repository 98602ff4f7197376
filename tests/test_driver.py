"""Dataset driver: exact block sums, array argmax, dedup on packed mask
words, and the staged pair evaluation against the one-example path."""
from __future__ import annotations

import math

import numpy as np
import pytest

from muscert import smoothing
from muscert.attack import attack_decremental, attack_incremental, attack_walks
from muscert.attribution import greedy_stable_attribution, greedy_stable_masks
from muscert.certify import certify_example, certify_examples
from muscert.core import FeatureGrouping, top_classes_and_gaps
from muscert.models import random_linear, random_mlp
from muscert.noise import LcgStream, SmoothingConfig, derive_rng_state
from muscert.smoothing import (
    SmoothedModel,
    _atom_means,
    _exact_sums,
    mus_evaluate_many,
    mus_evaluate_pairs,
)

from reference import mus_evaluate, scalar_probs, top_class_and_gap

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

@pytest.mark.parametrize("n", [5, 64, 70, 130])
def test_unique_masks_pairs_rows_with_keys_at_any_width(n):
    stream = LcgStream(derive_rng_state(n, 3))
    base = np.array([[stream.next_below(2) for _ in range(n)] for _ in range(6)],
                    dtype=np.uint8)
    picks = [stream.next_below(6) for _ in range(60)]
    masks = base[picks]
    keys = np.array([stream.next_below(3) for _ in picks])
    words = masks @ smoothing._bit_weights(n)
    assert words.shape == (len(masks), -(-n // 64))
    assert all(int(words[r, i // 64]) >> (i % 64) & 1 == masks[r, i]
               for r in range(len(masks)) for i in range(n))
    assert (smoothing._unpack_words(words, n) == masks).all()
    columns = {"masks": words.T, "keys": [*words.T, keys]}
    if n <= 61:
        # The driver's single key: the example index above the mask bits.
        tagged = keys.astype(np.uint64) << np.uint64(n) | words[:, 0]
        assert (smoothing._unpack_words(tagged[:, None], n) == masks).all()
        columns["tagged"] = [tagged]
    for name, cols in columns.items():
        rep, inverse = smoothing._distinct(cols)
        assert (masks[rep][inverse] == masks).all()
        pairs = {(0 if name == "masks" else int(keys[r]), masks[r].tobytes())
                 for r in range(len(masks))}
        assert len(rep) == len(pairs)
        if name != "masks":
            assert (keys[rep][inverse] == keys).all()


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


# The seven examples of _driver_instance take 3 bits above the n mask bits:
# up to n = 60 the driver sorts one key per row, above it (63 included) it
# sorts the mask words and the example index.
WIDTHS = [5, 47, 63, 64, 70]


def _key_columns(n):
    return 1 if n + 3 <= 63 else -(-n // 64) + 1


@pytest.mark.parametrize("chunk", [24, 4096], ids=["3-pair-chunks", "one-chunk"])
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
            assert tuple(row) == mus_evaluate_many(one, tuple(xs[e].tolist()), [alpha])[0]
    # The model's own mu applies when no per-example mu is given.
    shielded = model.with_mu(tuple(mus[0].tolist()))
    widths.clear()
    got = mus_evaluate_pairs(shielded, xs, examples, alphas)
    assert set(widths) == {_key_columns(n)}
    assert [tuple(row) for row in got.tolist()] == [
        mus_evaluate(shielded, tuple(xs[e].tolist()), a) for e, a in zip(examples, alphas)]


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


def test_pair_driver_rejects_bad_pairs():
    model, xs, examples, alphas, mus = _driver_instance(5)
    with pytest.raises(smoothing.ConfigError, match=r"need one example index in \[0, 7\)"):
        mus_evaluate_pairs(model, xs, [7] * len(alphas), alphas)
    with pytest.raises(smoothing.ConfigError, match="need one example index"):
        mus_evaluate_pairs(model, xs, examples[:-1], alphas)
    with pytest.raises(smoothing.ConfigError, match="got 6 noise-exempt masks for 7"):
        mus_evaluate_pairs(model, xs, examples, alphas, mus[:6])
    with pytest.raises(smoothing.ConfigError, match=r"input batch shape \(7, 4\)"):
        mus_evaluate_pairs(model, xs[:, :4], examples, alphas)


# --------------------------------------------------------- staged commands

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
        staged = greedy_stable_masks(model, xs, scores, *targets)
        assert staged == [greedy_stable_attribution(model, x, s, *targets)
                          for x, s in zip(rows, scores)]
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
    assert walks[:7] == [attack_incremental(model, x, phi, b)
                         for x, phi, b in zip(rows, phis, budgets)]
    assert walks[7:] == [attack_decremental(model, x, phi, b)
                         for x, phi, b in zip(rows, phis, budgets)]

    none = xs[:0]
    assert mus_evaluate_pairs(model, none, [], []).shape == (0, model.m)
    assert certify_examples(model, none, [], []) == []
    assert greedy_stable_masks(model, none, [], 0, 0) == []
    assert attack_walks(model, none, [], [], [], []) == []
