"""Multi-modality mix networks for 2D slice segmentation.

A small numpy stack: a reverse-mode autodiff core, the three network
variants, a trainer with plane-wise augmentation, volume IO, and the
evaluation metrics, plus a command line wrapper around the whole
pipeline.
"""

from .tensor import derive_seed, he_init, zeros
from .autodiff import Node, backward, grad_check
from .errors import (
    BuildError,
    ConfigError,
    DataError,
    MixNetError,
    ParameterError,
    PolicyError,
    ShapeError,
    TrainingDiverged,
    VerificationFailure,
)

__version__ = "0.1.0"

__all__ = [
    "Node", "backward", "grad_check", "zeros", "he_init",
    "derive_seed",
    "MixNetError", "ShapeError", "ParameterError", "DataError",
    "ConfigError", "PolicyError", "BuildError", "TrainingDiverged",
    "VerificationFailure",
    "__version__",
]
