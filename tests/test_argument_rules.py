"""The argument rules of core, table-driven over every argument they guard.

The integer rule: a count, size, radius, budget, seed, stream state or id is
a Python or numpy integer; a bool is not one, nor is any float, even 2.0.
The real-number rule: a kernel width, keep rate, scale, separation, learning
rate, model weight or dataset feature is a finite Python or numpy int or
float, read as the Python float it equals; a bool, a string, a list, NaN,
+-inf or an int too large for a float raises ConfigError rather than a bare
TypeError or a NaN result. The input-row rule: inputs are a (k, d) array of
numbers; a row of strings or a ragged batch raises ConfigError rather than a
bare ValueError. The mask rule: masks are a (k, n) batch of numbers that all
equal 0 or 1; anything else raises ConfigError naming the first bad mask.
Every rule shows at most 80 characters of the value it refuses.
"""
from __future__ import annotations

import numpy as np
import pytest

from muscert.attack import attack_walks
from muscert.attribution import (
    gradient_score_rows,
    greedy_stable_masks,
    lime_score_rows,
    occlusion_score_rows,
    occlusion_scores,
    shap_score_rows,
    topk_binarize,
    topk_mask_rows,
)
from muscert.certify import (
    brute_force_stability_oracle,
    certify_example,
    certify_examples,
    enumerate_perturbation_masks,
)
from muscert.core import ConfigError, FeatureGrouping, MuscertError, mask_array
from muscert.data import LabeledDataset, synth_blobs
from muscert.models import LinearSoftmaxModel, fit_logistic, random_linear, random_mlp
from muscert.noise import (
    LcgStream,
    SmoothingConfig,
    derive_rng_state,
    iid_bernoulli_bits,
    lcg_block,
)
from muscert.selfcheck import run_selfcheck
from muscert.smoothing import SmoothedModel, mus_evaluate_pairs

from reference import masking_equivalence_check

N = 3
GROUPING = FeatureGrouping.trivial(N)
BASE = random_linear(N, 2, 5)
MLP = random_mlp(N, 4, 2, 6)
MODEL = SmoothedModel.build(BASE, GROUPING, SmoothingConfig(q=4, lambda_num=2, seed=1, n=N))
XS = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.5]])
PHI = (1, 0, 0)
SCORES = [(0.3, 0.1, 0.2)]
DATASET = synth_blobs(3, N, 2, 2.0, 5)


def _config(**fields):
    return SmoothingConfig(**{"q": 8, "lambda_num": 2, "seed": 3, "n": N, **fields})


# (name in the message, call with the argument set to v, a valid Python int).
INTEGER_ARGUMENTS = {
    "SmoothingConfig q": ("q", lambda v: _config(q=v), 8),
    "SmoothingConfig lambda_num": ("lambda_num", lambda v: _config(lambda_num=v), 2),
    "SmoothingConfig seed": ("seed", lambda v: _config(seed=v), 3),
    "SmoothingConfig n": ("n", lambda v: _config(n=v), 3),
    "iid_bernoulli_bits n": ("n", lambda v: iid_bernoulli_bits(0.5, v, 4, 7), 3),
    "iid_bernoulli_bits count": ("count", lambda v: iid_bernoulli_bits(0.5, 3, v, 7), 4),
    "synth_blobs n_per_class": ("n_per_class", lambda v: synth_blobs(v, 2, 2, 1.0, 5), 2),
    "synth_blobs d": ("d", lambda v: synth_blobs(2, v, 2, 1.0, 5), 2),
    "synth_blobs m": ("m", lambda v: synth_blobs(2, 2, v, 1.0, 5), 2),
    "synth_blobs rng_state": ("stream state", lambda v: synth_blobs(2, 2, 2, 1.0, v), 5),
    "FeatureGrouping.trivial": ("feature dimension", FeatureGrouping.trivial, 3),
    "run_selfcheck max_n": ("max_n", lambda v: run_selfcheck(max_n=v, trials=1), 2),
    "run_selfcheck trials": ("trials", lambda v: run_selfcheck(max_n=2, trials=v), 1),
    "run_selfcheck seed": ("seed", lambda v: run_selfcheck(max_n=2, trials=1, seed=v), 3),
    "lime samples": ("samples", lambda v: lime_score_rows(BASE, XS, GROUPING, v,
                                                          rng_states=[1, 2]), 8),
    "shap permutations": ("permutations", lambda v: shap_score_rows(BASE, XS, GROUPING, v,
                                                                    rng_states=[1, 2]), 3),
    "topk_mask_rows k": ("k", lambda v: topk_mask_rows(SCORES, v, N), 2),
    "topk_binarize k": ("k", lambda v: topk_binarize(SCORES[0], v), 2),
    "greedy r_inc_target": ("r_inc_target",
                            lambda v: greedy_stable_masks(MODEL, XS[:1], SCORES, v, 0), 1),
    "greedy r_dec_target": ("r_dec_target",
                            lambda v: greedy_stable_masks(MODEL, XS[:1], SCORES, 0, v), 1),
    "enumerate radius": ("radius", lambda v: list(enumerate_perturbation_masks(PHI, v, "inc")), 1),
    "oracle radius": ("radius", lambda v: brute_force_stability_oracle(MODEL, XS[0], PHI, v,
                                                                       "dec"), 2),
    "certify example id": ("example id",
                           lambda v: certify_examples(MODEL, XS[:1], [PHI], [v]), 4),
    "pairs example index": ("example index",
                            lambda v: mus_evaluate_pairs(MODEL, XS, [v], [PHI]), 1),
    "attack example index": ("example index",
                             lambda v: attack_walks(MODEL, XS, [v], [PHI], [1], ["inc"]), 1),
    "attack budget": ("budget", lambda v: attack_walks(MODEL, XS, [0], [PHI], [v], ["dec"]), 2),
    "random_linear d": ("d", lambda v: random_linear(v, 2, 5), 3),
    "random_linear m": ("m", lambda v: random_linear(3, v, 5), 2),
    "random_linear rng_state": ("stream state", lambda v: random_linear(3, 2, v), 5),
    "random_mlp d": ("d", lambda v: random_mlp(v, 4, 2, 6), 3),
    "random_mlp h": ("h", lambda v: random_mlp(3, v, 2, 6), 4),
    "random_mlp m": ("m", lambda v: random_mlp(3, 4, v, 6), 2),
    "random_mlp rng_state": ("stream state", lambda v: random_mlp(3, 4, 2, v), 6),
    "gradient class": ("class", lambda v: MLP.gradient(XS[0], v), 1),
    "gradient_batch class": ("class", lambda v: MLP.gradient_batch(XS[:1], [v]), 1),
    "fit_logistic epochs": ("epochs", lambda v: fit_logistic(DATASET, epochs=v), 2),
    "LcgStream state": ("stream state", lambda v: LcgStream(v).next_u64(), 5),
    "lcg_block state": ("stream state", lambda v: lcg_block(v, 3), 5),
    "lcg_block states": ("stream state", lambda v: lcg_block([1, v], 3), 5),
    "derive_rng_state seed": ("seed", lambda v: derive_rng_state(v, 1), 5),
    "derive_rng_state index": ("index", lambda v: derive_rng_state(5, v), 1),
    "lime stream state": ("stream state", lambda v: lime_score_rows(BASE, XS, GROUPING, 8,
                                                                    rng_states=[1, v]), 2),
    "shap stream state": ("stream state", lambda v: shap_score_rows(BASE, XS, GROUPING, 3,
                                                                    rng_states=[1, v]), 2),
}


def _output_bytes(out) -> bytes:
    """Arrays by their bytes, sequences item by item, anything else by its
    repr, which shows a numpy scalar kept in place of an int."""
    if isinstance(out, np.ndarray):
        return out.tobytes()
    if isinstance(out, (list, tuple)):
        return b"|".join(map(_output_bytes, out))
    return repr(out).encode()


@pytest.mark.parametrize("case", INTEGER_ARGUMENTS)
def test_integer_rule(case):
    name, call, good = INTEGER_ARGUMENTS[case]
    for bad in (2.5, 2.0, True, "3"):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {bad!r}$"):
            call(bad)
    want = _output_bytes(call(good))
    for value in (np.int64(good), np.uint8(good)):
        assert _output_bytes(call(value)) == want


@pytest.mark.parametrize("case", ["pairs example index", "attack example index",
                                  "attack budget", "gradient_batch class"])
def test_integer_rule_on_a_batch_refuses_what_no_intp_holds(case):
    name, call, _good = INTEGER_ARGUMENTS[case]
    intp = np.iinfo(np.intp)
    for huge in (2 ** 70, int(intp.max) + 1, int(intp.min) - 1):
        with pytest.raises(ConfigError, match=(
                rf"^{name} must be in \[{intp.min}, {intp.max}\], got {huge}$")):
            call(huge)


# The floor of each random model size: one below it raises.
SIZE_FLOORS = {"random_linear d": 1, "random_linear m": 2, "random_mlp d": 1,
               "random_mlp h": 1, "random_mlp m": 2}


@pytest.mark.parametrize("case", SIZE_FLOORS)
def test_random_model_sizes_have_floors(case):
    name, call, _good = INTEGER_ARGUMENTS[case]
    floor = SIZE_FLOORS[case]
    with pytest.raises(ConfigError, match=f"^{name} must be >= {floor}, got {floor - 1}$"):
        call(floor - 1)
    call(floor)


# Each entry point of a 64-bit stream state, called with the state set to v.
STREAM_STATES = {case: INTEGER_ARGUMENTS[case][1]
                 for case in ("LcgStream state", "lcg_block state", "lcg_block states",
                              "derive_rng_state seed", "lime stream state", "shap stream state")}


@pytest.mark.parametrize("case", STREAM_STATES)
def test_stream_states_are_64_bit_integers(case):
    """None is refused too; every state derive_rng_state gives, up to
    2^64 - 1, is taken, and a state is read mod 2^64, as the LCG steps it."""
    call = STREAM_STATES[case]
    with pytest.raises(ConfigError, match="^(stream state|seed) must be an integer, got None$"):
        call(None)
    top = 2 ** 64 - 1
    assert _output_bytes(call(top)) == _output_bytes(call(np.uint64(top))) == \
        _output_bytes(call(-1))
    assert _output_bytes(call(derive_rng_state(11, 2))) == \
        _output_bytes(call(derive_rng_state(11, 2) + 2 ** 64))


def test_integer_rule_stores_python_ints():
    cfg = _config(q=np.int64(8), lambda_num=np.uint8(2), seed=np.int64(3), n=np.uint8(N))
    assert all(type(getattr(cfg, f)) is int for f in ("q", "lambda_num", "seed", "n"))
    assert cfg == _config()
    assert type(certify_examples(MODEL, XS[:1], [PHI], [np.uint8(4)])[0].example_id) is int
    assert type(synth_blobs(2, np.int64(2), np.uint8(2), 1.0, 5).m) is int


# Each real-number argument: (name in the message, call with the argument
# set to v, a valid integer g; g + 0.1 is valid too).
REAL_ARGUMENTS = {
    "lime kernel_width": ("kernel width", lambda v: lime_score_rows(
        BASE, XS, GROUPING, 8, v, rng_states=[1, 2]), 2),
    "iid_bernoulli_bits lam": ("lambda", lambda v: iid_bernoulli_bits(v, 3, 40, 7), 0),
    "random_linear scale": ("scale", lambda v: random_linear(3, 2, 5, scale=v), 2),
    "random_mlp scale": ("scale", lambda v: random_mlp(3, 4, 2, 6, scale=v), 2),
    "synth_blobs separation": ("separation", lambda v: synth_blobs(2, 2, 2, v, 5), 2),
    "fit_logistic learning_rate": ("learning_rate", lambda v: fit_logistic(
        DATASET, epochs=3, learning_rate=v), 2),
    "model weight": ('field "weights" row 1 entry 0', lambda v: LinearSoftmaxModel(
        weights=((1.0, 0.5), (v, -1.0)), bias=(0.0, 0.25)), 2),
    "dataset feature": ("example 1 entry 0", lambda v: LabeledDataset(
        examples=(((1.0, 0.5), 0), ((v, -1.0), 1)), d=2, m=2), 2),
}


@pytest.mark.parametrize("case", REAL_ARGUMENTS)
def test_real_number_rule(case):
    name, call, good = REAL_ARGUMENTS[case]
    for bad in ("1", "2.0", True, np.bool_(False), [2.0]):
        with pytest.raises(ConfigError) as err:
            call(bad)
        assert str(err.value) == f"{name} must be a number, got {bad!r}"
    with pytest.raises(ConfigError) as err:
        call(10 ** 400)
    assert str(err.value) == f"{name} is too large for a float"
    for bad in (float("nan"), float("inf"), -np.inf, np.float32("nan"), np.float16("-inf")):
        with pytest.raises(ConfigError) as err:
            call(bad)
        assert str(err.value) == f"{name} must be finite, got {float(bad)!r}"
    # A value is read as the Python float it equals, whatever its type.
    want = _output_bytes(call(float(good)))
    for value in (good, np.int64(good), np.uint8(good), np.float64(good), np.float32(good)):
        assert _output_bytes(call(value)) == want
    frac = np.float32(good + 0.1)
    assert _output_bytes(call(frac)) == _output_bytes(call(float(frac)))


# One value far too long to show, refused by each rule that names a value.
LONG_VALUES = {
    "integer rule": lambda: FeatureGrouping.from_json_dict({"d": 1, "groups": [[[0] * 100000]]}),
    "real-number rule": lambda: LinearSoftmaxModel(weights=(("x" * 100000, 1.0), (0.0, 1.0)),
                                                   bias=(0.0, 0.0)),
    "real-number row": lambda: LinearSoftmaxModel(weights=((1.0,), (0.0,)), bias=10 ** 150),
    "mask rule": lambda: mask_array([[0.5] * 100000], 3),
}


@pytest.mark.parametrize("case", LONG_VALUES)
def test_rule_messages_show_a_bounded_value(case):
    with pytest.raises(MuscertError) as err:
        LONG_VALUES[case]()
    message = str(err.value)
    assert len(message) < 200 and message.endswith("..."), message


# An int too long for repr, refused by a rule that names it: shown by its bit
# length, so the rule raises its ConfigError and not repr's bare ValueError.
DIGIT_LIMIT_VALUES = {
    "integer rule": (lambda: _config(q=10 ** 5000),
                     "q must be in [2, 65536], got <int of 16610 bits>"),
    "integer rule, negative": (lambda: _config(n=-10 ** 5000),
                               "n must be >= 1, got <negative int of 16610 bits>"),
    "mask rule": (lambda: mask_array([[10 ** 5000, 0]], 2),
                  "a mask must be 2 entries of 0 or 1, "
                  "got <list holding an int too long to show>"),
}


@pytest.mark.parametrize("case", DIGIT_LIMIT_VALUES)
def test_rule_messages_show_an_int_past_the_digit_limit(case):
    call, message = DIGIT_LIMIT_VALUES[case]
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message and len(message) < 200


STRINGS = [("a", "b", "c")]
RAGGED = [(1.0, 2.0, 3.0), (1.0, 2.0)]
ONE_RAGGED = (1.0, (2.0, 3.0), 4.0)

# Each stage called on a batch of input rows, or on one input for the one-row calls.
ROW_STAGES = {
    "mus_evaluate_pairs": (lambda xs: mus_evaluate_pairs(MODEL, xs, [0], [PHI]), False),
    "occlusion_score_rows": (lambda xs: occlusion_score_rows(MODEL, xs), False),
    "gradient_score_rows": (lambda xs: gradient_score_rows(BASE, xs, GROUPING), False),
    "lime_score_rows": (lambda xs: lime_score_rows(BASE, xs, GROUPING, 8,
                                                   rng_states=[0] * len(xs)), False),
    "shap_score_rows": (lambda xs: shap_score_rows(BASE, xs, GROUPING, 2,
                                                   rng_states=[0] * len(xs)), False),
    "attack_walks": (lambda xs: attack_walks(MODEL, xs, [0], [PHI], [1], ["inc"]), False),
    "linear evaluate_batch": (BASE.evaluate_batch, False),
    "mlp evaluate_batch": (MLP.evaluate_batch, False),
    "occlusion_scores": (lambda x: occlusion_scores(MODEL, x), True),
    "certify_example": (lambda x: certify_example(MODEL, x, PHI, 0), True),
    "masking_equivalence_check, no masks": (
        lambda x: masking_equivalence_check(MODEL, x, []), True),
    "linear evaluate": (BASE.evaluate, True),
    "mlp evaluate": (MLP.evaluate, True),
}


@pytest.mark.parametrize("stage", ROW_STAGES)
def test_input_row_rule(stage):
    call, one_row = ROW_STAGES[stage]
    with pytest.raises(ConfigError, match=r"^input rows must hold numbers, got dtype <U1$"):
        call(STRINGS[0] if one_row else STRINGS)
    with pytest.raises(ConfigError, match=r"^input rows do not form a \(k, d=3\) array$"):
        call(ONE_RAGGED if one_row else RAGGED)
    with pytest.raises(ConfigError, match=r"^input rows of shape \(1, 2\) are not \(k, d=3\)$"):
        call((1.0, 2.0) if one_row else [(1.0, 2.0)])
    # Numeric strings are not numbers either, and good rows pass.
    with pytest.raises(ConfigError, match=r"^input rows must hold numbers, got dtype <U3$"):
        call(("1.5",) * N if one_row else [("1.5",) * N])
    call(tuple(XS[0].tolist()) if one_row else XS[:1].tolist())


GOOD_MASK = (1, 0, 1)

# Each entry point of the mask rule called with the masks argument set to v,
# and whether v is one mask (True) or a batch of them (False).
MASK_ARGUMENTS = {
    "mus_evaluate_pairs alphas": (lambda v: mus_evaluate_pairs(MODEL, XS, [0], v), False),
    "mus_evaluate_pairs mus": (lambda v: mus_evaluate_pairs(MODEL, XS[:1], [0], [GOOD_MASK],
                                                            mus=v), False),
    "certify_examples phis": (lambda v: certify_examples(MODEL, XS[:1], v, [0]), False),
    "certify_examples mus": (lambda v: certify_examples(MODEL, XS[:1], [GOOD_MASK], [0],
                                                        mus=v), False),
    "certify_example": (lambda v: certify_example(MODEL, XS[0], v, 0), True),
    "attack_walks phis": (lambda v: attack_walks(MODEL, XS, [0], v, [1], ["inc"]), False),
    "SmoothedModel mu": (lambda v: SmoothedModel(BASE, GROUPING, MODEL.cfg, mu=v), True),
    "SmoothedModel.build mu": (lambda v: SmoothedModel.build(BASE, GROUPING, MODEL.cfg, v), True),
    "with_mu": (MODEL.with_mu, True),
    "oracle phi": (lambda v: brute_force_stability_oracle(MODEL, XS[0], v, 1, "inc"), True),
    "enumerate phi": (lambda v: list(enumerate_perturbation_masks(v, 1, "inc")), True),
    "masking_equivalence_check": (lambda v: masking_equivalence_check(MODEL, XS[0], v), False),
}

# (one mask, a batch, the mask the rule names): the same fault given to a
# one-mask and to a batch entry point. The last row is a batch where one
# mask is due, and one mask where a batch is.
BAD_MASKS = {
    "2": ((1, 2, 0), [(1, 2, 0)], (1, 2, 0)),
    "0.5": ((1, 0.5, 0), [(1, 0.5, 0)], (1, 0.5, 0)),
    "NaN": ((1, float("nan"), 0), [(1, float("nan"), 0)], (1, float("nan"), 0)),
    "None": ((1, None, 0), [(1, None, 0)], (1, None, 0)),
    "string": ("101", ["101"], "101"),
    "wrong width": ((1, 1), [(1, 1)], (1, 1)),
    "ragged": ((1, (0, 1), 0), [(1, 1, 1), (1, 1)], (1, 1)),
    "batch or flat": ([GOOD_MASK], GOOD_MASK, 1),
}


@pytest.mark.parametrize("case", MASK_ARGUMENTS)
@pytest.mark.parametrize("fault", BAD_MASKS)
def test_mask_rule(case, fault):
    call, one_mask = MASK_ARGUMENTS[case]
    one, batch, named = BAD_MASKS[fault]
    bad, named = (one, one) if one_mask else (batch, named)
    # enumerate_perturbation_masks takes a mask of any width, its own length.
    if case == "enumerate phi" and fault == "wrong width":
        assert call(bad) == [(1, 1)]
        return
    n = len(bad) if case == "enumerate phi" else N
    with pytest.raises(ConfigError) as err:
        call(bad)
    assert str(err.value) == f"a mask must be {n} entries of 0 or 1, got {named!r}"


GOOD_FORMS = (GOOD_MASK, list(GOOD_MASK), np.array(GOOD_MASK, dtype=np.int64),
              (True, False, True), np.array(GOOD_MASK, dtype=np.uint8))


@pytest.mark.parametrize("case", MASK_ARGUMENTS)
def test_mask_rule_reads_every_form_of_a_good_mask_alike(case):
    call, one_mask = MASK_ARGUMENTS[case]
    outputs = {_output_bytes(call(form if one_mask else
                                  form[None] if isinstance(form, np.ndarray) else [form]))
               for form in GOOD_FORMS}
    assert len(outputs) == 1
