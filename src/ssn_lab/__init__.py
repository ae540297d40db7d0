"""Low-rank Gaussian logit distributions for stochastic segmentation.

Core pieces: the low-rank multivariate normal over flattened logit maps,
Monte-Carlo logsumexp likelihood training with reparameterisation gradients,
distribution-level evaluation metrics, patch stitching with post-inference
sample manipulation, and a reproducible toy experiment with CLI front end.
"""

from .errors import (
    DivergenceError,
    NumericalError,
    OverflowSignal,
    ShapeError,
    SizeGuardError,
    ValidationError,
)
from .lowrank import (
    DIAG_FLOOR,
    LowRankGaussian,
    NoiseDraw,
    softplus,
    softplus_inv,
)
from .likelihood import (
    GradCheckResult,
    LabelMap,
    LossValue,
    ParamGrads,
    cross_entropy_loss,
    finite_diff_grad,
    grad_ssn_mc_loss,
    gradient_check_suite,
    label_log_likelihood,
    ssn_mc_loss,
)
from .metrics import (
    MetricReport,
    SampleSet,
    dsc,
    dsc_nod,
    ged_squared,
    iou_distance,
    marginal_entropy,
    sample_diversity,
)
from .assembly import (
    DeviationScale,
    Patch,
    PatchedParams,
    apply_deviation_scale,
    most_likely_prediction,
    stitch,
)
from .toy import (
    ToyDataset,
    ToyEvalReport,
    TrainConfig,
    TrainReport,
    evaluate_toy,
    make_toy_dataset,
    rank_sweep,
    summarize_sweep,
    train_toy,
)
from .rng import PortableRng, mix_seed

__version__ = "0.1.0"

__all__ = [
    "DIAG_FLOOR",
    "DeviationScale",
    "DivergenceError",
    "GradCheckResult",
    "LabelMap",
    "LossValue",
    "LowRankGaussian",
    "MetricReport",
    "NoiseDraw",
    "NumericalError",
    "OverflowSignal",
    "ParamGrads",
    "Patch",
    "PatchedParams",
    "PortableRng",
    "SampleSet",
    "ShapeError",
    "SizeGuardError",
    "ToyDataset",
    "ToyEvalReport",
    "TrainConfig",
    "TrainReport",
    "ValidationError",
    "apply_deviation_scale",
    "cross_entropy_loss",
    "dsc",
    "dsc_nod",
    "evaluate_toy",
    "finite_diff_grad",
    "ged_squared",
    "grad_ssn_mc_loss",
    "gradient_check_suite",
    "iou_distance",
    "label_log_likelihood",
    "make_toy_dataset",
    "marginal_entropy",
    "mix_seed",
    "most_likely_prediction",
    "rank_sweep",
    "sample_diversity",
    "softplus",
    "softplus_inv",
    "ssn_mc_loss",
    "stitch",
    "summarize_sweep",
    "train_toy",
]
