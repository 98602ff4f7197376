"""Exact evaluation of the mask-smoothed classifier.

A smoothed model averages the base classifier over its q noise atoms, masks
with exact per-coordinate keep rates: under mask alpha, atom s masks the
input by mu OR (alpha AND s), mu being the noise-exempt mask of the pair's
example, from the call's per-example mus or else the model's mu.
`mus_evaluate_pairs` computes that average for many (example, mask) pairs
at once, in windows of DRIVER_CHUNK pairs (fewer above q = 16, so that a
window holds at most 16 * DRIVER_CHUNK effective masks). It packs a
window's effective masks into 64-bit words, finds each example's distinct
ones with one sort of those words (packed with their row numbers when they
fit), and sends each of them to the base classifier
once, in forward calls of at most DRIVER_CHUNK rows. Its driver,
_pair_means, also takes a memo of the base outputs computed so far, for a
caller that evaluates the same inputs many times (attack_walks, once per
greedy step): a masked input already sent is read back rather than sent
again, and the memo grows with the distinct rows of the calls that share
it. _grid_means is the driver for calls whose examples all share their
masks and model.mu, occlusion's and accuracy-curve's: the distinct
effective masks then do not depend on the example, so it finds them once
per call and sends each example's G distinct masked inputs by blocks of
examples. Every class sum is correctly rounded before it is divided by q,
so neither the batching, the deduplication nor the memo can change a bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (
    ClassifierHandle,
    ConfigError,
    FeatureGrouping,
    Mask,
    _float_rows,
    _int_args,
    _zero_unless,
    evaluate_rows,
    mask_apply_rows,
    mask_array,
)
from .noise import SmoothingConfig, enumerate_atoms

EQUIVALENCE_TOL = 1e-12
# The one batch bound of mus_evaluate_pairs: the pairs per window (deduped
# together) and the distinct rows per forward call. A window also holds at
# most 16 * DRIVER_CHUNK effective rows, so above q = 16 it shrinks to
# 16 * DRIVER_CHUNK // q pairs, one at least. Big enough that the fixed
# cost of a window and of a call is spread over many rows, small enough
# that a window's arrays stay a few MB whatever the q.
DRIVER_CHUNK = 4096
# Columns per call from which _atom_means sums with arrays: below it one
# math.fsum per column is faster (the two cross between 96 and 192 columns
# at q = 8 and q = 16).
VECTOR_SUM_BLOCKS = 160


@dataclass(frozen=True)
class SmoothedModel:
    """A base classifier wrapped with the noise atoms of its config.

    `atoms` is the read-only (q, n) uint8 array enumerate_atoms(cfg). `mu`
    marks feature groups exempt from noise (always kept on), checked by the
    mask rule (core.mask_array); when absent every group is subject to masking.
    """

    base: ClassifierHandle
    grouping: FeatureGrouping
    cfg: SmoothingConfig
    mu: Mask | None = None
    atoms: np.ndarray = field(init=False, repr=False, compare=False)
    # For mus_evaluate_pairs: the atoms packed by _bit_weights, as (q, 1, W) words.
    _atom_words: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, d = self.grouping.n, self.grouping.d
        if d != self.base.d:
            raise ConfigError(f"grouping covers d={d} raw features, model expects {self.base.d}")
        if self.cfg.n != n:
            raise ConfigError(f"smoothing config is over n={self.cfg.n} groups, grouping has {n}")
        if self.mu is not None:
            object.__setattr__(self, "mu", tuple(mask_array([self.mu], n)[0].tolist()))
        atoms = enumerate_atoms(self.cfg)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_atom_words", (atoms @ _bit_weights(n))[:, None, :])

    @classmethod
    def build(cls, base: ClassifierHandle, grouping: FeatureGrouping,
              cfg: SmoothingConfig, mu: Mask | None = None) -> "SmoothedModel":
        """The constructor, under the name the quickstart and the bench use."""
        return cls(base=base, grouping=grouping, cfg=cfg, mu=mu)

    def with_mu(self, mu: Mask | None) -> "SmoothedModel":
        """This model with noise-exempt mask mu (a new model: atoms are rebuilt)."""
        return replace(self, mu=mu)

    @property
    def n(self) -> int:
        return self.grouping.n

    @property
    def m(self) -> int:
        return self.base.m


def mus_evaluate_pairs(model: SmoothedModel, xs, examples, alphas,
                       mus=None) -> np.ndarray:
    """Smoothed class means of many (example, alpha) pairs, as a (K, m) array.

    xs is an (E, d) input array; pair j is example examples[j] under mask
    alphas[j]. Its noise-exempt mask is row examples[j] of the (E, n) mus
    when given, else model.mu. Row j is the mean over the q atoms s of the
    base output on xs[examples[j]] masked by mu OR (alphas[j] AND s).
    """
    alphas = mask_array(alphas, model.grouping.n)
    xs, examples = _checked_examples(model, xs, examples, len(alphas))
    if mus is not None:
        mus = mask_array(mus, model.grouping.n)
        if len(mus) != len(xs):
            raise ConfigError(f"got {len(mus)} noise-exempt masks for {len(xs)} examples")
    return _pair_means(model, xs, examples, alphas, mus)


def _checked_examples(model: SmoothedModel, xs, examples,
                      count: int) -> tuple[np.ndarray, np.ndarray]:
    """xs as an (E, d) float array by the input-row rule, and examples as
    count intp indices into it by the integer rule."""
    xs = _float_rows(xs, model.grouping.d)
    examples = _int_args("example index", examples)
    if examples.shape != (count,) or (
            count and not 0 <= examples.min() <= examples.max() < len(xs)):
        raise ConfigError(f"need one example index in [0, {len(xs)}) per alpha")
    return xs, examples


@dataclass
class _BaseMemo:
    """Base outputs that _pair_means has computed on one input array xs:
    distinct key columns, laid out as a window's sort keys, and their
    (K, m) rows of probabilities. Empty until its first window."""

    keys: list[np.ndarray] | None = None
    probs: np.ndarray | None = None


def _pair_means(model: SmoothedModel, xs: np.ndarray, examples: np.ndarray,
                alphas: np.ndarray, mus: np.ndarray | None,
                memo: _BaseMemo | None = None) -> np.ndarray:
    """mus_evaluate_pairs on checked arrays.

    The pairs are taken DRIVER_CHUNK at a time, a window, or fewer when
    q > 16, so that a window holds at most 16 * DRIVER_CHUNK effective
    masks. A window's effective masks mu OR (alpha AND atom) are built as
    packed words, one broadcast over its atoms and pairs, in atom-major
    order. One sort of the words, with the example index above the mask
    bits when the two fit in 63 bits, finds each example's distinct
    effective masks in the window; only those are unpacked into mask rows
    and sent to the base classifier, DRIVER_CHUNK rows per call at most.

    A memo carries the base outputs from one call to the next on the same
    xs and base: each window's sort then runs over the memo's keys followed
    by the window's, a distinct row found in the memo is read from it, and
    only the others go to the base and join the memo. So the memo grows
    with the distinct rows of all the calls that share it, not with the
    window. Without one, nothing is kept between windows.

    Each class mean over an alpha's q atoms is the correctly rounded sum
    divided by q, and a row's output does not depend on its batch, so
    neither repeated rows, the windows nor the memo can change a bit of it.
    """
    n, q, m = model.grouping.n, model.cfg.q, model.base.m
    weights = _bit_weights(n)
    words = alphas @ weights
    # The words OR-ed into each pair's effective masks, one row per pair: its
    # example's row of mus, or of the model's mu repeated over the inputs.
    if mus is None and model.mu is not None:
        mus = np.broadcast_to(np.array(model.mu, dtype=np.uint8), (len(xs), n))
    exempt = None if mus is None else (mus @ weights)[examples]
    # With more than one example the keys carry the example index: above the
    # mask bits when both fit in 63 bits, else as a column of its own.
    index_column = len(xs) > 1
    if index_column and words.shape[1] == 1 and n + (len(xs) - 1).bit_length() <= 63:
        tag = examples.astype(np.uint64)[:, None] << np.uint64(n)
        exempt = tag if exempt is None else exempt | tag
        index_column = False
    out = np.empty((len(alphas), m))
    step = max(1, min(DRIVER_CHUNK, 16 * DRIVER_CHUNK // q))
    for lo in range(0, len(alphas), step):
        window = slice(lo, lo + step)
        pairs = examples[window]
        effective = model._atom_words & words[window]
        if exempt is not None:
            effective |= exempt[window]
        # Row j * len(pairs) + i is atom j on pair i.
        effective = effective.reshape(-1, words.shape[1])
        keys = [*effective.T, np.tile(pairs, q)] if index_column else effective.T
        if memo is None:
            rep, inverse = _distinct(keys)
            probs = _base_rows(model, xs, pairs, effective, rep)
        else:
            probs, inverse = _memo_rows(model, xs, pairs, effective, keys, memo)
        # The (pairs, q, m) view reads one contiguous (pairs, m) block per atom.
        rows = probs.take(inverse, axis=0).reshape(q, len(pairs), m)
        out[window] = _atom_means(rows.transpose(1, 0, 2))
    return out


def _grid_means(model: SmoothedModel, xs: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The (E, A, m) smoothed means of every row of the (E, d) float array xs
    under each of the (A, n) uint8 masks alphas and model.mu: the bits of
    mus_evaluate_pairs on the E * A tiled (example, alpha) pairs.

    The effective masks (atom AND alpha) OR mu are the same for every
    example, so one _distinct over their A * q packed words, with no example
    tag, finds the G distinct ones, and each example sends those G masked
    inputs: the base rows _pair_means sends when no window splits an
    example's pairs. A block of examples builds its inputs by one broadcast
    select, as the C-contiguous (d, e, G) columns the built-in kernels read,
    and sends them in forward calls of at most DRIVER_CHUNK rows. A block
    holds at most DRIVER_CHUNK base rows and 16 * DRIVER_CHUNK (example,
    alpha, atom) entries, one example at least; the alphas go in windows of
    16 * DRIVER_CHUNK // q, one at least. The atoms' rows are gathered
    atom-major, the (pairs, q, m) view of _pair_means, for _atom_means.
    """
    n, d, q, m = model.grouping.n, model.grouping.d, model.cfg.q, model.base.m
    weights = _bit_weights(n)
    words = alphas @ weights
    exempt = None if model.mu is None else np.array(model.mu, dtype=np.uint8) @ weights
    index_map = model.grouping.index_map()
    out = np.empty((len(xs), len(alphas), m))
    step = max(1, 16 * DRIVER_CHUNK // q)
    for lo in range(0, len(alphas), step):
        window = slice(lo, lo + step)
        # Row j * A + a is atom j under alpha a of the window's A.
        effective = (model._atom_words & words[window]).reshape(-1, words.shape[1])
        if exempt is not None:
            effective |= exempt
        rep, inverse = _distinct(effective.T)
        keep = _unpack_words(effective[rep], n).T.take(index_map, axis=0)
        shared = len(rep)
        # inverse[j, 0, a] is the distinct mask of atom j under alpha a.
        inverse = inverse.reshape(q, 1, -1)
        # An example takes G base rows and A * q entries, so e examples with
        # e * max(G, ceil(A * q / 16)) <= DRIVER_CHUNK keep both bounds.
        for block in _example_blocks(len(xs), max(shared, -(-inverse.size // 16))):
            count = block.stop - block.start
            probs = np.empty((count, shared, m))
            # More than one forward call only for a lone example whose G passes DRIVER_CHUNK.
            for g in range(0, shared, DRIVER_CHUNK):
                part = keep[:, None, g:g + DRIVER_CHUNK]
                cols = _zero_unless(part, xs.T[:, block, None],
                                    np.empty((d, count, part.shape[2])))
                probs[:, g:g + DRIVER_CHUNK] = evaluate_rows(
                    model.base, cols.reshape(d, -1).T).reshape(count, -1, m)
            rows = probs.reshape(-1, m).take(inverse + shared * np.arange(count)[:, None], axis=0)
            out[block, window] = _atom_means(rows.reshape(q, -1, m).transpose(1, 0, 2)).reshape(
                count, -1, m)
    return out


def _example_blocks(examples: int, rows_each: int, rows: int | None = None):
    """Slices of consecutive examples whose batch, rows_each rows per example,
    fits in `rows` rows, DRIVER_CHUNK by default (one example at least)."""
    step = max(1, (rows or DRIVER_CHUNK) // rows_each)
    return (slice(lo, min(lo + step, examples)) for lo in range(0, examples, step))


def _base_rows(model: SmoothedModel, xs: np.ndarray, pairs: np.ndarray,
               effective: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (len(rows), m) base outputs of the window's effective-mask rows
    `rows` (row r is an atom on pair r % len(pairs)), DRIVER_CHUNK rows per
    forward call at most."""
    probs = np.empty((len(rows), model.base.m))
    for start in range(0, len(rows), DRIVER_CHUNK):
        chunk = rows[start:start + DRIVER_CHUNK]
        inputs = mask_apply_rows(xs[pairs[chunk % len(pairs)]] if len(xs) > 1 else xs[0],
                                 _unpack_words(effective[chunk], model.grouping.n),
                                 model.grouping.index_map())
        probs[start:start + len(chunk)] = evaluate_rows(model.base, inputs)
    return probs


def _memo_rows(model: SmoothedModel, xs: np.ndarray, pairs: np.ndarray,
               effective: np.ndarray, keys, memo: _BaseMemo) -> tuple[np.ndarray, np.ndarray]:
    """(probs, inverse) of a window as _distinct and _base_rows give them,
    with every row already in the memo read from it; the window's other
    distinct rows are computed and appended to the memo. One _distinct runs
    over the memo's keys, which are distinct, followed by the window's: a
    rep below the memo's length is a memo row, the others take new slots."""
    if memo.keys is None:
        memo.keys, memo.probs = [key[:0] for key in keys], np.empty((0, model.base.m))
    known = len(memo.probs)
    rep, inverse = _distinct([np.concatenate(both) for both in zip(memo.keys, keys)])
    fresh = np.flatnonzero(rep >= known)
    rows = rep[fresh] - known
    rep[fresh] = np.arange(known, known + len(rows))
    memo.probs = np.concatenate((memo.probs, _base_rows(model, xs, pairs, effective, rows)))
    memo.keys = [np.concatenate((old, key[rows])) for old, key in zip(memo.keys, keys)]
    return memo.probs, rep[inverse[known:]]


@functools.cache
def _bit_weights(n: int) -> np.ndarray:
    """The read-only (n, W) uint64 matrix, W = ceil(n / 64), whose integer
    product with a (k, n) 0/1 mask array packs each row into W words: bit i
    of word w is group 64 w + i. A column's weights are distinct powers of
    two, so no sum carries. Cached: one small matrix per group count.
    """
    bits = np.uint64(1) << np.arange(64, dtype=np.uint64)
    weights = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    for w in range(weights.shape[1]):
        weights[64 * w:64 * (w + 1), w] = bits[:n - 64 * w]
    weights.flags.writeable = False
    return weights


def _unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """The (k, n) 0/1 uint8 mask rows of (k, W) packed words; bits from n
    up, such as an example index, are dropped."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1,
                         count=n, bitorder="little")


def _distinct(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the equal-length integer columns keys (a list, or a
    2-D array's rows), found by one sort: a single unsigned column whose
    values and row numbers fit in 64 bits together is sorted directly as
    key << b | row, b the row-number bits; other keys go through lexsort.

    Returns (rep, inverse): rep[j] is the first row holding distinct tuple
    j, the tuples numbered in sort order, and row r holds tuple inverse[r].
    """
    count = len(keys[0])
    shift = max(count - 1, 0).bit_length()
    new = np.ones(count, dtype=bool)
    if (len(keys) == 1 and keys[0].dtype.kind == "u"
            and int(keys[0].max(initial=0)).bit_length() + shift <= 64):
        order = np.left_shift(keys[0], shift, dtype=np.uint64)
        order |= np.arange(count, dtype=np.uint64)
        order.sort()
        # Neighbours hold other tuples when their XOR has a bit above the row's.
        np.greater_equal(order[1:] ^ order[:-1], np.uint64(1 << shift), out=new[1:])
        order = np.bitwise_and(order, np.uint64((1 << shift) - 1), out=order).view(np.intp)
    else:
        order = np.lexsort(keys)
        ordered = [key[order] for key in keys]
        np.not_equal(ordered[0][1:], ordered[0][:-1], out=new[1:])
        for column in ordered[1:]:
            new[1:] |= column[1:] != column[:-1]
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.add.accumulate(new, dtype=np.intp) - 1
    return order[new], inverse


def _atom_means(blocks: np.ndarray) -> np.ndarray:
    """(k, m) means over axis 1 of a (k, q, m) array: each column's correctly
    rounded sum, divided by q.

    Fewer than VECTOR_SUM_BLOCKS columns are summed by math.fsum one at a
    time; more by _exact_sums, whose fixed cost per call only pays at that
    size. Both give the correctly rounded sum, so the path cannot move a bit.
    """
    k, q, m = blocks.shape
    if k * m < VECTOR_SUM_BLOCKS:
        columns = blocks.transpose(0, 2, 1).tolist()
        sums = np.array([[math.fsum(col) for col in block] for block in columns])
        return sums.reshape(k, m) / q
    return _exact_sums(blocks) / q


def _exact_sums(blocks: np.ndarray) -> np.ndarray:
    """Correctly rounded (math.fsum) sums over axis 1 of a (k, q, m) array
    of values in [-1, 1]: probabilities, or SHAP's gains between two.

    TwoSum (Knuth) chains the columns: s + p = t + e exactly, so the exact
    sum is S = s + E, with s the chain's last t and E the sum of its q - 1
    errors e. c = fl(E) is summed in floating point, which by Higham,
    "Accuracy and Stability of Numerical Algorithms", eq. (4.4), gives
    |c - E| <= gamma(q - 2) * A with gamma(j) = j*u / (1 - j*u), u = 2^-53,
    and A the sum of the |e|; neither step asks the terms for a sign. The
    same chain sums A as a' in floating point, so A <= a' / (1 - u)^(q - 2);
    together |c - E| <= 1.03 * (q - 2) * u * a' while q*u < 0.01 (q < 2^17
    for the atoms and SHAP's orders), and bound = fl(2 * q * u * a') +
    2^-1074 is above it (the last term covers a product that underflows).
    TwoSum(s, c) = (r, f) is exact again, so S = r + f + (E - c). The result
    r is correctly rounded when |f| + bound < h, h half the smaller of the
    gaps from r to its two neighbouring floats (they differ by 2x at a power
    of two; the gaps are exact and halving them is exact or rounds down):
    then S is nearer to r than to any other float. The comparison is safe in
    floating point because rounding is monotone and h is a float; h is 0 at
    r = 0, so a zero total never passes. When a' is 0 every e was 0, so S =
    s exactly (s + c gives math.fsum's +0.0 for zeros). Every other column
    is summed by math.fsum (Shewchuk's algorithm, correctly rounded too).
    This is the compensated sum Sum2 of Ogita, Rump and Oishi, "Accurate Sum
    and Dot Product" (SIAM J. Sci. Comput., 2005), plus a test on its result.
    """
    q = blocks.shape[1]
    s = blocks[:, 0, :].copy()
    err = np.zeros_like(s)
    abs_err = np.zeros_like(s)
    for j in range(1, q):
        p = blocks[:, j, :]
        t = s + p
        virtual = t - s
        e = (s - (t - virtual)) + (p - virtual)
        err += e
        abs_err += np.abs(e)
        s = t
    total = s + err
    virtual = total - s
    residual = (s - (total - virtual)) + (err - virtual)
    bound = abs_err * (2 * q * 2.0 ** -53) + 2.0 ** -1074
    half_gap = np.minimum(np.nextafter(total, np.inf) - total,
                          total - np.nextafter(total, -np.inf)) / 2
    unsure = (abs_err != 0) & ~(np.abs(residual) + bound < half_gap)
    for i, c in zip(*np.nonzero(unsure)):
        total[i, c] = math.fsum(blocks[i, :, c].tolist())
    return total


def _premasked_means(model: SmoothedModel, x: Sequence[float], masks: np.ndarray,
                     mu: Mask | None) -> np.ndarray:
    """The (k, m) smoothed means of x zeroed by each of the (k, n) masks under
    the noise-exempt mask mu, with no effective-mask composition: each noise
    row (atom OR mu) zeroes the pre-masked input again, and the k*q rows go
    to the base model at once. It zeroes by np.where, not mask_apply_rows,
    so the sides share no masking."""
    index_map = model.grouping.index_map()
    premasked = np.where(masks[:, index_map] != 0, np.asarray(x, dtype=float), 0.0)
    noise = model.atoms if mu is None else model.atoms | np.asarray(mu, dtype=np.uint8)
    rows = np.where(noise[:, index_map] != 0, premasked[:, None, :], 0.0)
    return _atom_means(evaluate_rows(model.base, rows.reshape(-1, model.grouping.d))
                       .reshape(len(masks), model.cfg.q, model.base.m))
