"""Exact evaluation of the mask-smoothed classifier.

A smoothed model averages the base classifier over its q noise atoms, masks
with exact per-coordinate keep rates: under mask alpha, atom s masks the
input by mu OR (alpha AND s), mu being the noise-exempt mask of the pair's
example, from the call's per-example mus or else the model's mu.
`mus_evaluate_pairs` computes that average for many (example, mask) pairs
at once, in windows of DRIVER_CHUNK pairs (fewer above q = 16, so that a
window holds at most 16 * DRIVER_CHUNK effective masks). It packs each
effective mask into 64-bit words, its example's index in the bits above
the mask, finds each example's distinct ones with one sort of those keys,
and sends each to the base classifier once, in forward calls of at most
DRIVER_CHUNK rows. Its driver,
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
    mask_array,
)
from .noise import SmoothingConfig, enumerate_atoms

# The one batch bound of mus_evaluate_pairs: the pairs per window (deduped
# together) and the distinct rows per forward call. A window also holds at
# most 16 * DRIVER_CHUNK effective rows, so above q = 16 it shrinks to
# 16 * DRIVER_CHUNK // q pairs, one at least. Big enough that the fixed
# cost of a window and of a call is spread over many rows, small enough
# that a window's arrays stay a few MB whatever the q.
DRIVER_CHUNK = 4096
# Columns per call from which _atom_means sums with arrays: below it one
# math.fsum per column is faster (on random probability columns, m = 2 and
# 3, the two cross between 66 and 84 columns at q = 4, 8 and 16; timeit on
# a 2-vCPU x86-64 host).
VECTOR_SUM_BLOCKS = 80


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
    # For the drivers: the atoms packed as (q, 1, W) words of n + 63 bits, room
    # for any example index above the mask; each driver slices the words it uses.
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
        object.__setattr__(self, "_atom_words", (atoms @ _bit_weights(n + 63)[:n])[:, None, :])

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
    distinct (K, W) key rows, laid out as a window's packed effective masks,
    and their (K, m) rows of probabilities. Empty until its first window."""

    keys: np.ndarray | None = None
    probs: np.ndarray | None = None


def _pair_means(model: SmoothedModel, xs: np.ndarray, examples: np.ndarray,
                alphas: np.ndarray, mus: np.ndarray | None,
                memo: _BaseMemo | None = None) -> np.ndarray:
    """mus_evaluate_pairs on checked arrays.

    The pairs are taken DRIVER_CHUNK at a time, a window, or fewer when
    q > 16, so that a window holds at most 16 * DRIVER_CHUNK effective
    masks. Each example's fixed bits, its mu then its index in b =
    bits(E - 1) binary digits, are packed once into the W = ceil((n + b) /
    64) words of every key, and a window's effective masks, mu OR (alpha
    AND atom) with the index above, are built as such words, one broadcast
    over its atoms and pairs, in atom-major order. One sort of the words
    finds each example's distinct effective masks in the window; only those
    are unpacked into mask rows and sent to the base classifier,
    DRIVER_CHUNK rows per call at most.

    A memo carries the base outputs from one call to the next on the same
    xs and base: each window's sort then runs over the memo's key rows then
    the window's, a distinct row found in the memo is read from it, and
    only the others go to the base and join the memo. So the memo grows
    with the distinct rows of all the calls that share it, not with the
    window. Without one, nothing is kept between windows.

    Each class mean over an alpha's q atoms is the correctly rounded sum
    divided by q, and a row's output does not depend on its batch, so
    neither repeated rows, the windows nor the memo can change a bit of it.
    """
    n, q, m = model.grouping.n, model.cfg.q, model.base.m
    bits = (len(xs) - 1).bit_length()
    weights = _bit_weights(n + bits)
    words = alphas @ weights[:n]
    # Each example's fixed bits, its row of mus (else the model's mu, else
    # zeros) then its index, packed once and OR-ed into its pairs' masks.
    fixed = np.empty((len(xs), n + bits), dtype=np.uint8)
    fixed[:, :n] = mus if mus is not None else model.mu or 0
    fixed[:, n:] = _unpack_words(np.arange(len(xs), dtype=np.uint64)[:, None], bits)
    exempt = (fixed @ weights)[examples]
    out = np.empty((len(alphas), m))
    step = max(1, min(DRIVER_CHUNK, 16 * DRIVER_CHUNK // q))
    for lo in range(0, len(alphas), step):
        window = slice(lo, lo + step)
        pairs = examples[window]
        effective = model._atom_words[..., :weights.shape[1]] & words[window]
        effective |= exempt[window]
        # Row j * len(pairs) + i is atom j on pair i.
        effective = effective.reshape(-1, words.shape[1])
        if memo is None:
            rep, inverse = _distinct(effective.T)
            probs = _base_rows(model, xs, pairs, effective, rep)
        else:
            probs, inverse = _memo_rows(model, xs, pairs, effective, memo)
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
    exempt = np.array(model.mu or (0,) * n, dtype=np.uint8) @ weights
    index_map = model.grouping.index_map()
    out = np.empty((len(xs), len(alphas), m))
    step = max(1, 16 * DRIVER_CHUNK // q)
    for lo in range(0, len(alphas), step):
        window = slice(lo, lo + step)
        # Row j * A + a is atom j under alpha a of the window's A.
        effective = (model._atom_words[..., :len(exempt)] & words[window]).reshape(-1, len(exempt))
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
    forward call at most: each row's example zeroed by _zero_unless, as
    _grid_means zeroes its blocks."""
    index_map = model.grouping.index_map()
    probs = np.empty((len(rows), model.base.m))
    for start in range(0, len(rows), DRIVER_CHUNK):
        chunk = rows[start:start + DRIVER_CHUNK]
        keep = _unpack_words(effective[chunk], model.grouping.n).T.take(index_map, axis=0)
        # The (d, k) input columns the built-in models compute on, transposed.
        cols = _zero_unless(keep, xs.T.take(pairs[chunk % len(pairs)], axis=1))
        probs[start:start + len(chunk)] = evaluate_rows(model.base, cols.T)
    return probs


def _memo_rows(model: SmoothedModel, xs: np.ndarray, pairs: np.ndarray,
               effective: np.ndarray, memo: _BaseMemo) -> tuple[np.ndarray, np.ndarray]:
    """(probs, inverse) of a window as _distinct and _base_rows give them,
    with every row already in the memo read from it; the window's other
    distinct rows are computed and appended to the memo. One _distinct runs
    over the memo's key rows, which are distinct, followed by the window's:
    a rep below the memo's length is a memo row, the others take new slots."""
    if memo.keys is None:
        memo.keys, memo.probs = effective[:0], np.empty((0, model.base.m))
    known = len(memo.probs)
    rep, inverse = _distinct(np.concatenate((memo.keys, effective)).T)
    fresh = np.flatnonzero(rep >= known)
    rows = rep[fresh] - known
    rep[fresh] = np.arange(known, known + len(rows))
    memo.probs = np.concatenate((memo.probs, _base_rows(model, xs, pairs, effective, rows)))
    memo.keys = np.concatenate((memo.keys, effective[rows]))
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


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct columns of the (W, K) uint64 array keys, K packed keys of W
    words, found by one sort: a one-word key whose values and column
    numbers fit in 64 bits together is sorted directly as key << b | column,
    b the column-number bits; other keys go through np.lexsort of the words.

    Returns (rep, inverse): rep[j] is the first column holding distinct key
    j, the keys numbered in sort order, and column r holds key inverse[r].
    """
    count = keys.shape[1]
    shift = max(count - 1, 0).bit_length()
    new = np.ones(count, dtype=bool)
    if len(keys) == 1 and int(keys[0].max(initial=0)).bit_length() + shift <= 64:
        order = np.left_shift(keys[0], shift, dtype=np.uint64)
        order |= np.arange(count, dtype=np.uint64)
        order.sort()
        # Neighbours hold other keys when their XOR has a bit above the column's.
        np.greater_equal(order[1:] ^ order[:-1], np.uint64(1 << shift), out=new[1:])
        order = np.bitwise_and(order, np.uint64((1 << shift) - 1), out=order).view(np.intp)
    else:
        order = np.lexsort(keys)
        ordered = keys[:, order]
        new[1:] = np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.add.accumulate(new, dtype=np.intp) - 1
    return order[new], inverse


def _atom_means(blocks: np.ndarray) -> np.ndarray:
    """(k, m) means over axis 1 of a (k, q, m) array: each column's correctly
    rounded sum, divided by q.

    Fewer than VECTOR_SUM_BLOCKS columns are summed by math.fsum one at a
    time; more by _exact_sums, whose fixed cost per call (about twenty
    ufunc calls beside its five per atom) only pays at that size. Both give
    the correctly rounded sum, so the path cannot move a bit.
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

    Error-free splitting (Rump, Ogita and Oishi, "Accurate Floating-Point
    Summation Part I", SIAM J. Sci. Comput. 31(1), 2008), with u = 2^-53
    and sigma = 2^M, M >= 1 the least with 2^M >= q. For |p| <= 1, p +
    sigma lies in [sigma / 2, 2 sigma], so by Sterbenz the high part
    h = fl(p + sigma) - sigma is exact: a multiple of 2^(M-53), with
    |h| <= 1 since rounding is monotone and sigma - 1 and sigma + 1 are
    floats. The low part l = p - h is the rounding error of p + sigma, a
    float too, with |l| <= L = 2^(M-53). Every partial sum of high parts is
    a multiple of 2^(M-53) of size at most q <= 2^53 * 2^(M-53), a float,
    so their sum H is exact in any order. The low parts are summed in atom
    order. The k-th partial sum has size at most k L (a float; rounding is
    monotone), so rounding it costs at most u k L, and the computed sum c
    is within bound = u L q (q + 1) / 2 of the exact sum E of the low parts,
    an integer times a power of two that is computed exactly.

    TwoSum(H, c) = (r, f) is exact, so the exact sum is S = r + f + (E - c),
    and r is correctly rounded when |f| + bound < d, d half the smaller gap
    from r to a neighbouring float: then S is nearer to r than to any other
    float. That gap is spacing(|r| (1 - u)): at a power of two |r| (1 - u) is
    the float below, elsewhere it rounds within the binade of |r|; from 0
    up to 2^-1021 it is 2^-1074. The test runs as 2 fl(|f| + bound) <
    gap: doubling is exact, and the gap is either twice a float, so that
    by monotone rounding the test implies |f| + bound < d, or 2^-1074, below
    2 bound, so that it fails. A zero total never passes.

    The columns that fail are gathered at once, and their low parts are
    split again at sigma2 = 2^(2M-53). The same argument (|l| <= L <=
    sigma2 / 2 and q L <= sigma2) makes the fine parts exact multiples of
    2^(2M-106) whose sum F is exact in any order. Where every remainder
    l - fine is 0, S = H + F is the exact sum of two floats, and one IEEE
    add rounds it to nearest, ties to even, as math.fsum does (+0.0 for an
    exact zero: no high or fine part is -0.0). So exact half-ulp ties,
    common when probabilities hold few bits, cost no fsum. The columns left
    with a remainder go to math.fsum (Shewchuk's algorithm, correctly
    rounded too). The bounds are absolute, so among them are columns whose
    entries are all far below 1 (about 1e-13 at q = 16) and not on the fine
    grid.
    """
    q = blocks.shape[1]
    exponent = max(1, (q - 1).bit_length())
    sigma = 2.0 ** exponent
    # Five in-place ufuncs per atom: part = h, high += h, part = l, low += l.
    high = np.add(blocks[:, 0, :], sigma)
    high -= sigma
    low = np.subtract(blocks[:, 0, :], high)
    part = np.empty_like(high)
    for j in range(1, q):
        p = blocks[:, j, :]
        np.add(p, sigma, out=part)
        part -= sigma
        high += part
        np.subtract(p, part, out=part)
        low += part
    total = high + low
    # TwoSum(high, low) = (total, residual), exactly; `part` takes the residual.
    virtual = total - high
    residual = np.subtract(total, virtual, out=part)
    np.subtract(high, residual, out=residual)
    np.subtract(low, virtual, out=virtual)
    residual += virtual
    # 2 (|residual| + bound) against the smaller gap, spacing(|total| (1 - u)).
    np.abs(residual, out=residual)
    residual += q * (q + 1) * 2.0 ** (exponent - 107)
    residual += residual
    gap = np.abs(total, out=virtual)
    gap *= 1 - 2.0 ** -53
    np.spacing(gap, out=gap)
    unsure = np.nonzero(residual >= gap)
    if len(unsure[0]):
        sigma2 = 2.0 ** (2 * exponent - 53)
        columns = blocks[unsure[0], :, unsure[1]]
        lows = columns - ((columns + sigma) - sigma)
        fine = (lows + sigma2) - sigma2
        sums = high[unsure] + fine.sum(axis=1)
        for r in np.flatnonzero((lows != fine).any(axis=1)):
            sums[r] = math.fsum(columns[r].tolist())
        total[unsure] = sums
    return total


def _premasked_means(model: SmoothedModel, x: Sequence[float], masks: np.ndarray,
                     mu: Mask | None) -> np.ndarray:
    """The (k, m) smoothed means of x zeroed by each of the (k, n) masks under
    the noise-exempt mask mu, with no effective-mask composition: each noise
    row (atom OR mu) zeroes the pre-masked input again, and the k*q rows go
    to the base model at once. It zeroes by np.where, not the drivers'
    _zero_unless, so the sides share no masking."""
    index_map = model.grouping.index_map()
    premasked = np.where(masks[:, index_map] != 0, np.asarray(x, dtype=float), 0.0)
    noise = model.atoms if mu is None else model.atoms | np.asarray(mu, dtype=np.uint8)
    rows = np.where(noise[:, index_map] != 0, premasked[:, None, :], 0.0)
    return _atom_means(evaluate_rows(model.base, rows.reshape(-1, model.grouping.d))
                       .reshape(len(masks), model.cfg.q, model.base.m))
