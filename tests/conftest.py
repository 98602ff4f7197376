"""Shared fixtures: tiny classifiers and trained desk-scale artifacts."""
from __future__ import annotations

import time

import pytest

from muscert import fit_logistic, save_csv_dataset, save_model, synth_blobs
from muscert.certify import radius_from_gap
from muscert.core import ones_mask
from muscert.data import LabeledDataset
from muscert.noise import derive_rng_state

from reference import mus_evaluate, scalar_probs, top_class_and_gap


class IndicatorFirstFeature:
    """Two-class handle that fires iff the first feature is positive."""

    d = 2
    m = 2

    def evaluate(self, z):
        fire = 1.0 if z[0] > 0 else 0.0
        return (fire, 1.0 - fire)


class ConstantHandle:
    """Returns the same probability vector for every input."""

    def __init__(self, probs, d):
        self.probs = tuple(probs)
        self.d = d
        self.m = len(self.probs)

    def evaluate(self, z):
        return self.probs


class GradientFreeAdapter:
    """Hide an analytic gradient and evaluate_batch so only evaluate() is
    visible; on a built-in model it runs reference.scalar_probs."""

    def __init__(self, inner):
        self._inner = inner
        self.d = inner.d
        self.m = inner.m

    def evaluate(self, x):
        return scalar_probs(self._inner, x)


def definitional_certificate(model, x, phi):
    """(consistent, r_inc, r_dec) recomputed on the q-query mus_evaluate path,
    independent of the batch path that certify_example takes."""
    pred_class, gap_at_ones = top_class_and_gap(
        mus_evaluate(model, x, ones_mask(model.grouping.n)))
    masked_class, gap_at_attr = top_class_and_gap(mus_evaluate(model, x, phi))
    cfg = model.cfg
    _, r_inc = radius_from_gap(gap_at_attr, cfg.lambda_num, cfg.q)
    _, r_dec = radius_from_gap(gap_at_ones, cfg.lambda_num, cfg.q)
    return pred_class == masked_class, r_inc, r_dec


@pytest.fixture
def indicator_handle():
    return IndicatorFirstFeature()


def _sliced_blobs(n_per_class, d, m, separation, rng_state, total):
    full = synth_blobs(n_per_class, d, m, separation, rng_state)
    return LabeledDataset(examples=full.examples[:total], d=d, m=m)


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """Trained d=16 m=3 blob model with 500 train / 200 test examples.

    Build time is recorded so the end-to-end acceptance test can count it
    against its runtime budget.
    """
    t0 = time.monotonic()
    root = tmp_path_factory.mktemp("desk")
    train = _sliced_blobs(167, 16, 3, 4.0, derive_rng_state(11, 0), 500)
    test = _sliced_blobs(67, 16, 3, 4.0, derive_rng_state(11, 1), 200)
    model = fit_logistic(train, epochs=500, learning_rate=0.1, rng_state=0)
    model_path = root / "model.json"
    test_path = root / "test.csv"
    train_path = root / "train.csv"
    save_model(model, str(model_path))
    save_csv_dataset(test, str(test_path))
    save_csv_dataset(train, str(train_path))
    return {
        "model": model,
        "train": train,
        "test": test,
        "model_path": str(model_path),
        "test_path": str(test_path),
        "train_path": str(train_path),
        "dir": root,
        "build_seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def small_artifacts(tmp_path_factory):
    """Quick d=6 m=3 model and dataset files for CLI behavior tests."""
    root = tmp_path_factory.mktemp("small")
    train = synth_blobs(40, 6, 3, 4.0, derive_rng_state(7, 0))
    test = synth_blobs(8, 6, 3, 4.0, derive_rng_state(7, 1))
    model = fit_logistic(train, epochs=150, learning_rate=0.1, rng_state=0)
    model_path = root / "model.json"
    data_path = root / "test.csv"
    save_model(model, str(model_path))
    save_csv_dataset(test, str(data_path))
    return {
        "model": model,
        "test": test,
        "model_path": str(model_path),
        "data_path": str(data_path),
        "dir": root,
    }
