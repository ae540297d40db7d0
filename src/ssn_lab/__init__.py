"""Low-rank Gaussian logit distributions for stochastic segmentation.

Core pieces: the low-rank multivariate normal over flattened logit maps,
Monte-Carlo logsumexp likelihood training with reparameterisation gradients,
distribution-level evaluation metrics, patch stitching with post-inference
sample manipulation, and a reproducible toy experiment with CLI front end.
"""

from types import ModuleType as _ModuleType

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
    Params,
    softplus,
    softplus_inv,
)
from .likelihood import (
    GradCheckResult,
    LabelMap,
    LossValue,
    cross_entropy_loss,
    finite_diff_grad,
    grad_ssn_mc_loss,
    gradient_check_suite,
    label_log_likelihood,
    labels_from_logits,
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

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
