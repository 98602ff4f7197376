"""muscert: certified stability for masked feature explanations.

A classifier is smoothed by averaging over a fixed set of feature-mask
noise atoms with exact keep rates, which makes its output provably
Lipschitz in the mask. Confidence gaps then convert into integer radii:
how many features may be added to, or removed from, an explanation
before the prediction can change. Brute-force oracles re-verify every
certificate at desk scale.
"""
from .attack import AttackResult, AttackStep, attack_decremental, attack_incremental
from .attribution import (
    ScoreVector,
    gradient_scores,
    greedy_stable_attribution,
    lime_lite_scores,
    occlusion_scores,
    shap_lite_scores,
    topk_binarize,
)
from .certify import (
    CertRecord,
    brute_force_stability_oracle,
    certify_example,
    enumerate_perturbation_masks,
    radius_from_gap,
)
from .core import (
    ClassifierHandle,
    ConfigError,
    DataError,
    FeatureGrouping,
    MuscertError,
    VerificationError,
    l1_distance,
    mask_and,
    mask_apply,
    mask_leq,
    mask_or,
    ones_mask,
    popcount,
    top_class_and_gap,
    zeros_mask,
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
    NoiseAtoms,
    SmoothingConfig,
    derive_rng_state,
    derive_seed_vector,
    enumerate_atoms,
)
from .selfcheck import SelfcheckReport, SuiteResult, run_selfcheck
from .smoothing import (
    LeakageReport,
    SmoothedModel,
    additive_leakage_demo,
    masking_equivalence_check,
    mus_evaluate,
    mus_evaluate_many,
    rmus_estimate,
    smoothed_predict,
)

__version__ = "0.1.0"
