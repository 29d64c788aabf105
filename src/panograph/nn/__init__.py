from .core import Module, kaiming_uniform
from .layers import (
    BatchNorm,
    Conv1x1,
    Linear,
    MaxPoolT,
    ReLU,
    SpatialGraphConv,
    STPAttention,
    TemporalConv,
)
from .blocks import BasicBlock, MultiScaleTCN
from .model import (
    STREAM_ORDER,
    ModelConfig,
    MPGCN,
    cross_entropy,
    softmax,
)

__all__ = [
    "Module",
    "kaiming_uniform",
    "BatchNorm",
    "Conv1x1",
    "Linear",
    "MaxPoolT",
    "ReLU",
    "SpatialGraphConv",
    "STPAttention",
    "TemporalConv",
    "BasicBlock",
    "MultiScaleTCN",
    "ModelConfig",
    "MPGCN",
    "cross_entropy",
    "softmax",
    "STREAM_ORDER",
]
