"""Gait-based walker identification from side-view silhouette sequences."""

from .background import (
    BackgroundModel,
    model_cdm,
    model_histogram,
    model_median,
)
from .errors import GaitlockError
from .features import (
    FEATURE_NAMES,
    fuse,
    haar_dwt2,
    haar_idwt2,
    spatial_features,
    temporal_features,
    wavelet_features,
)
from .gaitcycle import (
    GaitCycle,
    estimate_period,
    partition_cycles,
    select_feature_window,
    width_signal,
)
from .imagery import Frame, FrameSequence, load_sequence
from .metrics import ConfusionMatrix, evaluate, measures
from .segmentation import (
    clean_mask,
    difference_mask,
    segment_sequence,
)
from .svm import (
    BinarySvm,
    KernelSpec,
    SvmModel,
    load_model,
    predict,
    save_model,
    train_binary,
    train_multiclass,
)
from .synthgait import WalkerSpec, WalkerTruth, generate

__version__ = "0.1.0"

__all__ = [
    "BackgroundModel",
    "BinarySvm",
    "ConfusionMatrix",
    "FEATURE_NAMES",
    "Frame",
    "FrameSequence",
    "GaitCycle",
    "GaitlockError",
    "KernelSpec",
    "SvmModel",
    "WalkerSpec",
    "WalkerTruth",
    "clean_mask",
    "difference_mask",
    "estimate_period",
    "evaluate",
    "fuse",
    "generate",
    "haar_dwt2",
    "haar_idwt2",
    "load_model",
    "load_sequence",
    "measures",
    "model_cdm",
    "model_histogram",
    "model_median",
    "partition_cycles",
    "predict",
    "save_model",
    "segment_sequence",
    "select_feature_window",
    "spatial_features",
    "temporal_features",
    "train_binary",
    "train_multiclass",
    "wavelet_features",
    "width_signal",
]
