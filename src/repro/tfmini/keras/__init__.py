"""Keras-like training API: models, callbacks and checkpointing."""

from repro.tfmini.keras.callbacks import (
    Callback,
    CallbackList,
    History,
    ModelCheckpoint,
    TensorBoard,
)
from repro.tfmini.keras.checkpoint import (
    CheckpointInfo,
    CheckpointWriter,
)
from repro.tfmini.keras.models import (
    AlexNet,
    MalwareCNN,
    Model,
    TrainingConfig,
    Variable,
)

__all__ = [
    "AlexNet",
    "Callback",
    "CallbackList",
    "CheckpointInfo",
    "CheckpointWriter",
    "History",
    "MalwareCNN",
    "Model",
    "ModelCheckpoint",
    "TensorBoard",
    "TrainingConfig",
    "Variable",
]
