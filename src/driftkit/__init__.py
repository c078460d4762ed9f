"""driftkit: train, prune, and evaluate binary classifiers on
timestamped streams whose input distribution drifts.

The pieces, bottom up:

  kernels     the numeric core: seeded RNG, dropout masks and the hot
              elementwise loops (sigmoid, loss, AdamW)
  data        datasets, loaders (csv / binary), splits, buckets
  losses      weighted cross-entropy with miss/false-alarm penalties and
              a logit-magnitude penalty
  model       residual MLP with hand-derived backprop and AdamW
  training    recent-validation training loop with early stopping
  pfi         permutation feature importance and mask pruning
  evaluation  monthly bucket metrics and drift onset detection
  synthdrift  seeded synthetic drifting streams
  cli         driftkit command line
"""

from .data import (
    Dataset,
    FeatureMask,
    apply_mask,
    bucket_by_month,
    compose_masks,
    load_dataset,
    save_dataset,
    split_random,
    split_recent,
)
from .errors import (
    ConfigError,
    DataError,
    DriftkitError,
    EmptyMaskError,
    FormatError,
    NumericError,
    ParseError,
    ShapeError,
    StateError,
)
from .evaluation import (
    DriftVerdict,
    Metrics,
    MetricsReport,
    detect_drift,
    evaluate_buckets,
)
from .kernels import make_rng, sigmoid
from .losses import LossConfig, class_weights, loss_grad, loss_value
from .model import (
    ModelConfig,
    ModelParams,
    forward,
    init_model,
    load_model,
    predict_proba,
    save_model,
)
from .pfi import PfiConfig, PfiReport, run_pfi
from .synthdrift import DriftSpec, generate_stream
from .training import TrainConfig, TrainHistory, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "Dataset",
    "DriftSpec",
    "DriftVerdict",
    "DriftkitError",
    "EmptyMaskError",
    "FeatureMask",
    "FormatError",
    "LossConfig",
    "Metrics",
    "MetricsReport",
    "ModelConfig",
    "ModelParams",
    "NumericError",
    "ParseError",
    "PfiConfig",
    "PfiReport",
    "ShapeError",
    "StateError",
    "TrainConfig",
    "TrainHistory",
    "apply_mask",
    "bucket_by_month",
    "class_weights",
    "compose_masks",
    "detect_drift",
    "evaluate_buckets",
    "forward",
    "generate_stream",
    "init_model",
    "load_dataset",
    "load_model",
    "loss_grad",
    "loss_value",
    "make_rng",
    "predict_proba",
    "run_pfi",
    "save_dataset",
    "save_model",
    "sigmoid",
    "split_random",
    "split_recent",
    "train",
    "__version__",
]
