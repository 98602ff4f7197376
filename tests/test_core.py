"""Mask algebra, grouping validation, and argmax/gap semantics."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muscert.core import (
    ConfigError,
    DataError,
    FeatureGrouping,
    l1_distance,
    mask_and,
    mask_apply,
    mask_leq,
    mask_or,
    ones_mask,
    popcount,
    top_class_and_gap,
    validate_logits,
    validate_mask,
    zeros_mask,
)

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


def test_mask_apply_grouped_zeroes_whole_groups():
    g = FeatureGrouping(groups=((0, 1), (2,), (3, 4)), d=5)
    x = (1.0, 2.0, 3.0, 4.0, 5.0)
    out = mask_apply(x, (0, 1, 0), g)
    assert out == (0.0, 0.0, 3.0, 0.0, 0.0)
    # dropped coordinates are exact zeros, not tiny residues
    assert all(v == 0.0 for i, v in enumerate(out) if i in (0, 1, 3, 4))


def test_mask_apply_identity_on_ones():
    g = FeatureGrouping.trivial(4)
    x = (0.5, -1.25, 3.0, 0.0)
    assert mask_apply(x, (1, 1, 1, 1), g) == x


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
    ({"d": 3, "groups": [[0], [2]]}, r"groups do not cover raw indices \[1\]"),
    ({"d": 3, "groups": [[0], [1], [2], []]}, "group 3 is empty"),
    ({"d": 2, "groups": [[0], [1], [2]]}, r"group 2 index 2 outside raw range 0\.\.1"),
    ({"d": 2, "groups": [[0], ["x"]]}, "group 1 holds non-integer index 'x'"),
], ids=[f"doc{i}" for i in range(5)])
def test_grouping_rejects_non_partitions(doc, message):
    with pytest.raises(DataError, match=message):
        FeatureGrouping.from_json_dict(doc)


def test_mask_leq_orders_by_support():
    assert mask_leq((0, 1, 0), (1, 1, 0))
    assert mask_leq((0, 0), (0, 0))
    assert not mask_leq((1, 0), (0, 1))


def test_l1_distance_counts_flips():
    assert l1_distance((1, 0, 1), (0, 0, 1)) == 1
    assert l1_distance((1, 1), (0, 0)) == 2
    assert l1_distance((1, 0), (1, 0)) == 0


def test_top_class_prefers_lowest_index_on_tie():
    assert top_class_and_gap((0.4, 0.4, 0.2)) == (0, 0.0)
    assert top_class_and_gap((0.2, 0.5, 0.3)) == (1, pytest.approx(0.2))


def test_top_class_needs_two_classes():
    with pytest.raises(ConfigError, match="need at least 2 classes, got 1"):
        top_class_and_gap((1.0,))


def test_validate_logits_contract():
    validate_logits((0.25, 0.75))
    with pytest.raises(ConfigError, match="probabilities sum to 1.2, not 1"):
        validate_logits((0.6, 0.6))
    with pytest.raises(ConfigError, match=r"probability -0\.1 outside \[0, 1\]"):
        validate_logits((-0.1, 1.1))
    with pytest.raises(ConfigError, match="expected 3 class probabilities, got 2"):
        validate_logits((0.5, 0.5), m=3)


def test_mask_helpers():
    assert ones_mask(3) == (1, 1, 1)
    assert zeros_mask(2) == (0, 0)
    assert mask_and((1, 0, 1), (1, 1, 0)) == (1, 0, 0)
    assert mask_or((1, 0, 0), (0, 0, 1)) == (1, 0, 1)
    assert popcount((1, 0, 1, 1)) == 3
    with pytest.raises(ConfigError, match="mask length 2 != expected 3"):
        validate_mask((1, 0), 3)
    with pytest.raises(DataError, match="mask entries must be 0 or 1"):
        validate_mask((1, 2), 2)


@given(masks)
@settings(max_examples=60)
def test_and_is_lower_bound_or_is_upper_bound(alpha):
    beta = tuple(1 - b for b in alpha)
    both = mask_and(alpha, beta)
    either = mask_or(alpha, beta)
    assert mask_leq(both, alpha) and mask_leq(both, beta)
    assert mask_leq(alpha, either) and mask_leq(beta, either)


@given(masks, st.integers(0, 7))
@settings(max_examples=60)
def test_l1_distance_is_a_metric_on_masks(alpha, rot):
    n = len(alpha)
    beta = tuple(alpha[(i + rot) % n] for i in range(n))
    assert l1_distance(alpha, beta) == l1_distance(beta, alpha)
    assert l1_distance(alpha, alpha) == 0
    gamma = tuple(1 - b for b in beta)
    assert l1_distance(alpha, gamma) <= l1_distance(alpha, beta) + l1_distance(beta, gamma)


@given(masks)
@settings(max_examples=40)
def test_mask_apply_is_idempotent(alpha):
    n = len(alpha)
    g = FeatureGrouping.trivial(n)
    x = tuple(float(i + 1) for i in range(n))
    once = mask_apply(x, alpha, g)
    assert mask_apply(once, alpha, g) == once
