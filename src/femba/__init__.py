"""Deployment toolchain for a Tiny bidirectional-Mamba EEG encoder.

Submodules: signal_pipeline (preprocessing/augmentation), model (float
reference), quantizer (PTQ toolchain), image (checkpoint/image containers),
engine (integer inference), reference (bit-exactness oracle), streamsim
(memory-streaming cycle simulator), objectives (losses), cli.
"""

from .model import ModelConfig, forward, init_weights
from .quantizer import quantize_model
from .streamsim import CostModel, MemHierarchy, mac_count, run_default

__all__ = [
    "ModelConfig", "forward", "init_weights",
    "quantize_model", "MemHierarchy", "CostModel", "mac_count", "run_default",
]
