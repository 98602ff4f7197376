"""Mask algebra, grouping validation, and argmax/gap semantics."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muscert.core import (
    ConfigError,
    DataError,
    FeatureGrouping,
    _zero_unless,
    evaluate_rows,
    mask_array,
    ones_mask,
    top_classes_and_gaps,
    validate_logits_batch,
)

from reference import mask_and, mask_apply, mask_or, where_masked_rows

masks = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(*[st.integers(0, 1)] * n)
)


def test_trivial_grouping():
    g = FeatureGrouping.trivial(3)
    assert g.d == 3
    assert g.n == 3
    assert g.groups == ((0,), (1,), (2,))


def test_trivial_grouping_rejects_bad_width():
    with pytest.raises(ConfigError, match="feature dimension must be >= 1, got 0"):
        FeatureGrouping.trivial(0)


def _driver_select(xs, examples, masks, index_map):
    """Row r is xs[examples[r]] zeroed where masks[r]'s group bit is 0, as the
    pair driver selects: _zero_unless on the (d, k) input columns."""
    keep = masks.T.take(index_map, axis=0)
    return _zero_unless(keep, np.asarray(xs, dtype=float).T.take(examples, axis=1)).T


def _apply_rows(x, alpha, g):
    masks = np.array([alpha], dtype=np.uint8)
    return tuple(_driver_select([x], [0], masks, g.index_map())[0].tolist())


def test_mask_apply_grouped_zeroes_whole_groups():
    g = FeatureGrouping(groups=((0, 1), (2,), (3, 4)), d=5)
    x = (1.0, 2.0, 3.0, 4.0, 5.0)
    for out in (mask_apply(x, (0, 1, 0), g), _apply_rows(x, (0, 1, 0), g)):
        assert out == (0.0, 0.0, 3.0, 0.0, 0.0)
        # dropped coordinates are exact zeros, not tiny residues
        assert all(v == 0.0 for i, v in enumerate(out) if i in (0, 1, 3, 4))


def test_mask_apply_identity_on_ones():
    g = FeatureGrouping.trivial(4)
    x = (0.5, -1.25, 3.0, 0.0)
    assert mask_apply(x, (1, 1, 1, 1), g) == x
    assert _apply_rows(x, (1, 1, 1, 1), g) == x


def test_driver_select_matches_np_where_bit_for_bit():
    # -0.0, a quiet NaN with a payload, a negative signalling NaN, both
    # infinities and two subnormals, then ordinary values.
    specials = np.array([0x8000000000000000, 0x7FF8000000001234, 0xFFF4000000000001,
                         0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000001,
                         0x800FFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    pool = np.concatenate([specials, [1.5, -3.25, 0.0, 7e300]])
    g = FeatureGrouping(groups=((0, 4), (1,), (2, 3, 5), (6, 7, 8)), d=9)
    index_map = g.index_map()
    every = np.array([[c >> i & 1 for i in range(g.n)] for c in range(2 ** g.n)], np.uint8)
    rows = np.array([np.roll(pool, r)[:g.d] for r in range(len(every))])
    for masks in (every, every.astype(bool), every.astype(np.int64), every[:0]):
        # One example for every mask, then an example of its own for each.
        for xs, examples in ((rows[:1], np.zeros(len(masks), np.intp)),
                             (rows[:len(masks)], np.arange(len(masks)))):
            got = _driver_select(xs, examples, masks, index_map)
            want = where_masked_rows(xs[examples], masks, index_map)
            assert got.dtype == np.float64 and got.shape == (len(masks), g.d)
            assert got.T.flags.c_contiguous  # the models' input columns
            assert got.tobytes() == want.tobytes()
    # Every special value is kept somewhere and dropped somewhere.
    kept = every.astype(bool)[:, index_map]
    for bits in specials.view(np.uint64):
        holds = rows.view(np.uint64) == bits
        assert kept[holds].any() and not kept[holds].all()


def test_mask_apply_dimension_errors():
    g = FeatureGrouping.trivial(3)
    with pytest.raises(ConfigError, match="input length 2 != raw dimension 3"):
        mask_apply((1.0, 2.0), (1, 1, 1), g)
    with pytest.raises(ConfigError, match="mask length 2 != group count 3"):
        mask_apply((1.0, 2.0, 3.0), (1, 1), g)


def test_grouping_json_round_trip():
    g = FeatureGrouping(groups=((0, 2), (1,)), d=3)
    doc = g.to_json_dict()
    assert doc == {"d": 3, "groups": [[0, 2], [1]]}
    assert FeatureGrouping.from_json_dict(doc) == g


@pytest.mark.parametrize("doc,message", [
    ({"d": 3, "groups": [[0, 1], [1, 2]]}, "raw index 1 appears in more than one group"),
    ({"d": 3, "groups": [[0], [2]]},
     r"^groups do not cover raw index 1 \(1 of 3 indices missing\)$"),
    ({"d": 3, "groups": [[0], [1], [2], []]}, "group 3 is empty"),
    ({"d": 2, "groups": [[0], [1], [2]]}, r"^group 2 index must be in \[0, 1\], got 2$"),
    ({"d": 2, "groups": [[0], ["x"]]}, "^group 1 index must be an integer, got 'x'$"),
], ids=[f"doc{i}" for i in range(5)])
def test_grouping_rejects_non_partitions(doc, message):
    """The grouping rule refuses a grouping built in code with ConfigError,
    and the same grouping read from a document with DataError."""
    with pytest.raises(ConfigError, match=message):
        FeatureGrouping(groups=doc["groups"], d=doc["d"])
    with pytest.raises(DataError, match=message):
        FeatureGrouping.from_json_dict(doc)


@pytest.mark.parametrize("d", [1.0, True, 0, -2, "3", None])
def test_grouping_checks_its_own_d(d):
    """Built directly or from a document, a grouping refuses a d that is not
    an integer >= 1 by the integer rule, before index_map could fail on it."""
    message = (f'field "d" must be >= 1, got {d}' if type(d) is int
               else f'field "d" must be an integer, got {d!r}')
    for build, error in ((lambda: FeatureGrouping(groups=((0,),), d=d), ConfigError),
                         (lambda: FeatureGrouping.from_json_dict({"d": d, "groups": [[0]]}),
                          DataError)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


@pytest.mark.parametrize("groups", [None, (0, 1), ((0,), 5), 3, [[0]] * 10 ** 5 + [5]])
def test_grouping_refuses_groups_that_are_not_a_batch_of_batches(groups):
    """The message stays short however many groups there are."""
    with pytest.raises(ConfigError, match='^field "groups" must be a list of index lists$'):
        FeatureGrouping(groups=groups, d=2)


# The same grouping in forms the rule takes: tuples, lists, numpy integers
# and arrays.
GROUPING_FORMS = [
    ((0, 2), (1,)),
    [[0, 2], [1]],
    ((np.int64(0), np.uint8(2)), (np.int32(1),)),
    (np.array([0, 2]), np.array([1], dtype=np.uint8)),
]


@pytest.mark.parametrize("form", range(len(GROUPING_FORMS)))
def test_grouping_stores_python_int_tuples(form):
    tuple_twin = FeatureGrouping(groups=((0, 2), (1,)), d=3)
    g = FeatureGrouping(groups=GROUPING_FORMS[form], d=np.int64(3))
    assert g == tuple_twin and hash(g) == hash(tuple_twin)
    assert type(g.d) is int and type(g.groups) is tuple
    assert all(type(group) is tuple and all(type(i) is int for i in group)
               for group in g.groups)
    assert json.dumps(g.to_json_dict()) == '{"d": 3, "groups": [[0, 2], [1]]}'


def test_grouping_built_from_lists_cannot_be_changed_after_the_check():
    groups = [[0], [1]]
    g = FeatureGrouping(groups, 2)
    groups[0].append(1)
    assert g.groups == ((0,), (1,))
    assert g.index_map().tolist() == [0, 1]


def test_index_map_is_one_read_only_array():
    g = FeatureGrouping(groups=((3, 0), (1,), (2, 4)), d=5)
    index_map = g.index_map()
    assert index_map is g.index_map()
    assert index_map.dtype == np.intp and index_map.tolist() == [0, 1, 2, 0, 2]
    assert not index_map.flags.writeable
    with pytest.raises(ValueError):
        index_map[0] = 1


def test_grouping_names_only_the_first_index_it_misses():
    """The message stays short however large the declared d."""
    with pytest.raises(DataError) as err:
        FeatureGrouping.from_json_dict({"d": 10 ** 6, "groups": [[0], [2]]})
    assert str(err.value) == "groups do not cover raw index 1 (999998 of 1000000 indices missing)"
    assert len(str(err.value)) < 200


def test_top_class_prefers_lowest_index_on_tie():
    classes, gaps = top_classes_and_gaps(np.array([(0.4, 0.4, 0.2), (0.2, 0.5, 0.3)]))
    assert classes.tolist() == [0, 1]
    assert gaps.tolist() == [0.0, pytest.approx(0.2)]


def test_top_class_needs_two_classes():
    with pytest.raises(ConfigError, match="need at least 2 classes, got 1"):
        top_classes_and_gaps(np.array([(1.0,)]))


def test_validate_logits_contract():
    assert validate_logits_batch([(0.25, 0.75)], 1, 2).tolist() == [[0.25, 0.75]]
    with pytest.raises(ConfigError, match="^probabilities sum to 1.2, not 1$"):
        validate_logits_batch([(0.6, 0.6)], 1, 2)
    with pytest.raises(ConfigError, match=r"^probability -0\.1 outside \[0, 1\]$"):
        validate_logits_batch([(-0.1, 1.1)], 1, 2)
    with pytest.raises(ConfigError, match=r"^probability nan outside \[0, 1\]$"):
        validate_logits_batch([(0.5, float("nan"))], 1, 2)
    with pytest.raises(ConfigError,
                       match=r"expected a \(1, 3\) probability batch, got shape \(1, 2\)"):
        validate_logits_batch([(0.5, 0.5)], 1, 3)


def test_batch_output_of_non_numbers_breaks_the_contract():
    class Words:
        d, m = 2, 2

        def evaluate_batch(self, z):
            return [("high", "low")] * len(z)

    with pytest.raises(ConfigError, match="^batch output is not a numeric array: "):
        evaluate_rows(Words(), np.zeros((3, 2)))


def test_mask_rule_refuses_a_number_for_a_batch():
    with pytest.raises(ConfigError, match="^a mask must be 3 entries of 0 or 1, got 5$"):
        mask_array(5, 3)


def test_mask_helpers():
    assert ones_mask(3) == (1, 1, 1)
    with pytest.raises(ConfigError, match=r"^a mask must be 3 entries of 0 or 1, got \(1, 0\)$"):
        mask_array([(1, 0)], 3)
    with pytest.raises(ConfigError, match=r"^a mask must be 2 entries of 0 or 1, got \(1, 2\)$"):
        mask_array([(1, 2)], 2)
    assert mask_array([(1.0, 0, True)], 3).tolist() == [[1, 0, 1]]


@given(masks)
@settings(max_examples=60)
def test_and_is_lower_bound_or_is_upper_bound(alpha):
    beta = tuple(1 - b for b in alpha)
    both = mask_and(alpha, beta)
    either = mask_or(alpha, beta)
    for lower, upper in ((both, alpha), (both, beta), (alpha, either), (beta, either)):
        assert all(a <= b for a, b in zip(lower, upper))


@given(masks)
@settings(max_examples=40)
def test_mask_apply_is_idempotent(alpha):
    n = len(alpha)
    g = FeatureGrouping.trivial(n)
    x = tuple(float(i + 1) for i in range(n))
    once = _apply_rows(x, alpha, g)
    assert _apply_rows(once, alpha, g) == once == mask_apply(x, alpha, g)
