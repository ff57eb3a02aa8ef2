"""Audio-visual source separation at desk scale.

A numpy-only engine: reverse-mode autodiff tensors, 1-D convolutional
primitives, cross-modal attention blocks, a cyclic separation model with
one weight set shared across refinement cycles, scale-invariant SNR
metrics and training, plus file formats and a CLI.
"""

from .errors import (
    AvsepError,
    ConfigConflictError,
    ConfigError,
    FormatError,
    GeometryError,
    TrainingError,
)
from .metrics import si_snr, si_snri, sdr, sdri, pit_best, si_snr_loss, pit_si_snr_loss
from .model import (
    ModelConfig,
    ModelParams,
    SeparationOutput,
    build_params,
    count_macs,
    count_params,
    load_checkpoint,
    full_scale_config,
    paper_scale_config,
    save_checkpoint,
    separate,
)
from .tensor import Tensor
from .trainer import TrainSettings, train_toy

__version__ = "0.1.0"
