"""muscert: certified stability for masked feature explanations.

A classifier is smoothed by averaging over a fixed set of feature-mask
noise atoms with exact keep rates, which makes its output provably
Lipschitz in the mask. Confidence gaps then convert into integer radii:
how many features may be added to, or removed from, an explanation
before the prediction can change. Brute-force oracles re-verify every
certificate at desk scale.
"""
from .attack import AttackResult, attack_walks
from .attribution import (
    gradient_score_rows,
    greedy_stable_masks,
    lime_score_rows,
    occlusion_scores,
    shap_score_rows,
    topk_binarize,
)
from .certify import (
    CertRecord,
    brute_force_stability_oracle,
    certify_example,
    enumerate_perturbation_masks,
)
from .core import (
    ClassifierHandle,
    ConfigError,
    DataError,
    FeatureGrouping,
    MuscertError,
    VerificationError,
    ones_mask,
)
from .data import LabeledDataset, load_csv_dataset, load_grouping, save_csv_dataset, synth_blobs
from .models import (
    LinearSoftmaxModel,
    MlpModel,
    fit_logistic,
    load_model,
    random_linear,
    random_mlp,
    save_model,
)
from .noise import (
    LcgStream,
    SmoothingConfig,
    derive_rng_state,
    enumerate_atoms,
)
from .selfcheck import SelfcheckReport, SuiteResult, run_selfcheck
from .smoothing import (
    SmoothedModel,
    mus_evaluate_pairs,
)

__version__ = "0.1.0"
