"""Geometric multimodal contrastive representation learning, desk scale.

A small float64 stack for training modality-specific encoders against a
complete-observation encoder with a temperature-scaled contrastive loss,
then checking what the shared latent space earned: classification through
any single modality and geometric alignment of the embedded point clouds.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateVectorError,
    DomainError,
    FormatError,
    GmcError,
    NumericError,
    ShapeError,
)
from .tensor import Tape, Tensor, grad_check
from .loss import RepresentationBatch, mnt_xent, mnt_xent_ablated
from .synthdata import MultimodalDataset, SynthConfig, generate
from .model import EncoderSpec, GmcModel, ModelConfig, TrainConfig, TrainResult, batch_loss, train
from .downstream import (
    ProbeClassifier,
    ProbeConfig,
    RobustnessTable,
    evaluate_robustness,
    train_probe,
)
from .dca import DcaReport, build_graph, evaluate_alignment, score_labeled_graph
from .persist import load_checkpoint, load_dataset, save_checkpoint, save_dataset

__all__ = [
    "__version__",
    "Tape",
    "Tensor",
    "grad_check",
    "mnt_xent",
    "mnt_xent_ablated",
    "RepresentationBatch",
    "batch_loss",
    "SynthConfig",
    "MultimodalDataset",
    "generate",
    "EncoderSpec",
    "GmcModel",
    "ModelConfig",
    "TrainConfig",
    "TrainResult",
    "train",
    "ProbeClassifier",
    "ProbeConfig",
    "RobustnessTable",
    "train_probe",
    "evaluate_robustness",
    "DcaReport",
    "build_graph",
    "score_labeled_graph",
    "evaluate_alignment",
    "save_checkpoint",
    "load_checkpoint",
    "save_dataset",
    "load_dataset",
    "GmcError",
    "ShapeError",
    "DomainError",
    "DegenerateVectorError",
    "ContractError",
    "ConfigError",
    "DataError",
    "FormatError",
    "NumericError",
]
