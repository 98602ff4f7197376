"""Golden output bytes of every CLI command on the seed-11 desk fixture.

Each case runs one command in-process and compares the sha256 of every file
it writes with the digest pinned here. A change to how the commands are
evaluated (batching, staging, summation) must leave every one of these
bytes where it is.
"""
from __future__ import annotations

import builtins
import hashlib
import json
import math

import pytest

from muscert import random_mlp, save_model
from muscert.cli import EXIT_OK, main
from muscert.noise import derive_rng_state

CASES = {
    "certify-l2": ("certify", 2, ("--topk", "8")),
    "certify-l4": ("certify", 4, ("--topk", "8")),
    "certify-l8": ("certify", 8, ("--topk", "8")),
    "certify-phi-l2": ("certify", 2, ("--topk", "8", "--mu-mode", "phi")),
    "certify-greedy-l4": ("certify", 4, ("--rinc", "1", "--rdec", "0")),
    "accuracy-l4": ("accuracy-curve", 4, ()),
    "explain-occlusion": ("explain", 4, ("--scorer", "occlusion", "--rinc", "0", "--rdec", "0")),
    "explain-vgrad": ("explain", 4, ("--scorer", "vgrad", "--rinc", "0", "--rdec", "0")),
    "explain-lime": ("explain", 4, ("--scorer", "lime", "--rinc", "0", "--rdec", "0")),
    "explain-shap": ("explain", 4, ("--scorer", "shap", "--rinc", "0", "--rdec", "0")),
    "attack-l4": ("attack", 4, ("--topk", "8", "--budget", "4")),
    "explain-lime-mlp": ("explain", 4, ("--scorer", "lime", "--rinc", "0", "--rdec", "0")),
    "explain-shap-mlp": ("explain", 4, ("--scorer", "shap", "--rinc", "0", "--rdec", "0")),
}

# The "-mlp" cases swap in a random ReLU MLP and an uneven grouping of the 16
# features into 6 groups, so LIME and SHAP mask several raw features per bit.
MLP_GROUPS = [[0, 5, 9], [1], [2, 3, 4, 15], [6, 12], [7, 8, 10], [11, 13, 14]]

GOLDEN = {
    "accuracy-l4": {
        "accuracy-l4.out":
            "8cdae1431c1143acb5c7b3d70e2adeb543a08275cf559c316b5011c4a8cabd31",
    },
    "attack-l4": {
        "attack-l4.out":
            "5b2704f434f65ab9466399ad24a2473418ae0c4e272bb63ae068e0caabff96d4",
    },
    "certify-greedy-l4": {
        "certify-greedy-l4.out":
            "fb29d85451733572d571f5344f478adee9a8971c9fd46b1ed6072f6d727b67e8",
        "certify-greedy-l4.out.curves":
            "01bef20ed334d33f575f2ee002691db7d7c3c00d80e11189c9032b44b0bef352",
    },
    "certify-l2": {
        "certify-l2.out":
            "238b047a9e918f8083f15508d2f4402972af76db8d0dc2763271cb9986f8b82e",
        "certify-l2.out.curves":
            "01bef20ed334d33f575f2ee002691db7d7c3c00d80e11189c9032b44b0bef352",
    },
    "certify-l4": {
        "certify-l4.out":
            "e1db30e3553f28f10164c714b0bb4b7da1c2e3c058e41af9dc8708e3d784f0d2",
        "certify-l4.out.curves":
            "01bef20ed334d33f575f2ee002691db7d7c3c00d80e11189c9032b44b0bef352",
    },
    "certify-l8": {
        "certify-l8.out":
            "0e43073cb5a8283592b9a9e06fd8180767980149741edc85e858c5e7865685ce",
        "certify-l8.out.curves":
            "01bef20ed334d33f575f2ee002691db7d7c3c00d80e11189c9032b44b0bef352",
    },
    "certify-phi-l2": {
        "certify-phi-l2.out":
            "d01d704d63006ecb501b207f32a1a984b19231518e2f5251bcc3d3109516941b",
        "certify-phi-l2.out.curves":
            "9fd2b63b1b9fad74d13a0579e62d694ed5c8efff4041d6b872a8eecd5a859d25",
    },
    "explain-lime": {
        "explain-lime.out":
            "ae57d351193261f2ca5c3c52622953f775d6eff116703f1bc86ec8964b141619",
    },
    "explain-lime-mlp": {
        "explain-lime-mlp.out":
            "9d690677936e5f702e00bf86afcfc25e6747f58a1de3aa9d1f212db09e0c24c5",
    },
    "explain-occlusion": {
        "explain-occlusion.out":
            "ac06452fe8aa78fce9794643de2973087b06e9e96870f6b3ba6dc7d51b38d69d",
    },
    "explain-shap": {
        "explain-shap.out":
            "9f577eb4922df4bf2ae884d535f3d2ba9632e5079e98d5ea85884999718fe4df",
    },
    "explain-shap-mlp": {
        "explain-shap-mlp.out":
            "0a1597632ce72b2674ac28ce67c9187f22a476264a622f710d70141afa4aa74e",
    },
    "explain-vgrad": {
        "explain-vgrad.out":
            "0ee14061b2dc2e9ee74790be0ac6b51a9b61317adc29d1a6438c9c5718bf8386",
    },
}


@pytest.fixture(scope="module")
def mlp_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("mlp")
    model_path = root / "mlp.json"
    grouping_path = root / "groups.json"
    save_model(random_mlp(16, 8, 3, derive_rng_state(11, 2), scale=0.5), str(model_path))
    grouping_path.write_text(json.dumps({"d": 16, "groups": MLP_GROUPS}))
    return ["--model", str(model_path), "--grouping", str(grouping_path)]


def _run(desk, mlp_inputs, tmp_path, label):
    command, lambda_num, extra = CASES[label]
    out = tmp_path / f"{label}.out"
    model = mlp_inputs if label.endswith("-mlp") else ["--model", desk["model_path"]]
    argv = [command, *model, "--data", desk["test_path"],
            "--out", str(out), "--q", "16", "--lambda-num", str(lambda_num),
            "--seed", "11", *extra]
    assert main(argv) == EXIT_OK
    written = sorted(tmp_path.glob(f"{label}.out*"))
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}


@pytest.mark.parametrize("label", sorted(CASES))
def test_desk_outputs_keep_their_bytes(desk, mlp_inputs, tmp_path, label):
    assert _run(desk, mlp_inputs, tmp_path, label) == GOLDEN[label]


_builtin_sum = builtins.sum


def _compensated_sum(values, /, start=0):
    """The builtin sum as Python 3.12 and later compute it over numbers that
    hold a float: Neumaier's compensated sum, whose correction is added when
    finite; any other sum as the running Python computes it."""
    items = list(values)
    if not (any(type(v) is float for v in items)
            and all(type(v) in (int, float) for v in (start, *items))):
        return _builtin_sum(items, start)
    total, carry = float(start), 0.0
    for v in map(float, items):
        t = total + v
        carry += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + carry if carry and math.isfinite(carry) else total


@pytest.mark.parametrize("label", sorted(CASES))
def test_desk_outputs_keep_their_bytes_under_a_compensated_sum(desk, mlp_inputs, tmp_path,
                                                                 monkeypatch, label):
    """No pinned byte may depend on which sum() the running Python has."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert _run(desk, mlp_inputs, tmp_path, label) == GOLDEN[label]
