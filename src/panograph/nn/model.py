"""The full network: four input branches, early-fusion main branch, classifier."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError, ContractError, InputError
from .blocks import BasicBlock
from .core import Module
from .layers import Linear

STREAM_ORDER = ("joint", "bone", "joint_motion", "bone_motion")

# Output width of each block; input widths follow from the plan (see ModelConfig).
DEFAULT_INPUT_BRANCH = (64, 64, 32)
DEFAULT_MAIN_BRANCH = (128, 128, 128, 256, 256, 256)
STRIDED_MAIN_BLOCK = 3  # the main block whose TCN halves the frame count


@dataclass
class ModelConfig:
    """Graph size, class count and channel divisor of an MPGCN.

    Block output widths are the default plan divided by ``channel_divisor``
    (at least 4). Block input widths follow: the first input-branch block
    reads the 2C stream channels, the first main block reads the four input
    branches concatenated (4x the last input-branch width), and every other
    block reads its predecessor's output.
    """

    num_persons: int
    joints_per_person: int
    object_keypoints: int
    num_frames: int
    num_classes: int
    in_channels: int = 3  # coordinate channels C; streams carry 2C
    channel_divisor: int = 1

    @property
    def nodes_per_person(self) -> int:
        return self.joints_per_person + self.object_keypoints

    @property
    def num_nodes(self) -> int:
        return self.num_persons * self.nodes_per_person

    @property
    def input_branch_channels(self) -> list[int]:
        return [max(c // self.channel_divisor, 4) for c in DEFAULT_INPUT_BRANCH]

    @property
    def main_branch_channels(self) -> list[int]:
        return [max(c // self.channel_divisor, 4) for c in DEFAULT_MAIN_BRANCH]

    def validate(self) -> None:
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        for name in ("num_persons", "joints_per_person", "num_frames", "in_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.object_keypoints < 0:
            raise ConfigError(f"object_keypoints must be >= 0, got {self.object_keypoints}")
        if self.channel_divisor < 1:
            raise ConfigError(f"channel_divisor must be >= 1, got {self.channel_divisor}")
        for width in self.input_branch_channels + self.main_branch_channels:
            if width % 4:
                raise ConfigError(f"block output {width} not a multiple of 4 (TCN branches)")

    def scaled(self, divisor: int) -> "ModelConfig":
        """This config with every block width divided by ``divisor`` (for tiny/desk-scale runs)."""
        return replace(self, channel_divisor=divisor)


class _BlockStack(Module):
    def __init__(self, blocks):
        super().__init__()
        self.blocks = [self.add(f"block{i}", b) for i, b in enumerate(blocks)]

    def forward(self, x, training=False):
        for block in self.blocks:
            x = block.forward(x, training)
        return x

    def backward(self, grad_out):
        for block in reversed(self.blocks):
            grad_out = block.backward(grad_out)
        return grad_out


class MPGCN(Module):
    """Early-fusion multi-branch graph convolutional classifier.

    Consumes the four feature streams as (B, 2C, T, M*N') tensors, runs each
    through its own input branch, concatenates channels into the main
    branch, global-average-pools, and classifies.
    """

    def __init__(self, config: ModelConfig, adjacency: np.ndarray, rng: np.random.Generator):
        super().__init__()
        config.validate()
        n = config.num_nodes
        if adjacency.shape != (3, n, n):
            raise ConfigError(
                f"adjacency shape {adjacency.shape} does not match config nodes {n}"
            )
        self.config = config
        self.adjacency = adjacency

        def stack(cin, widths, strided_block=None):
            blocks = []
            for j, cout in enumerate(widths):
                stride = 2 if j == strided_block else 1
                blocks.append(BasicBlock(cin, cout, adjacency, config.nodes_per_person, rng, stride=stride))
                cin = cout
            return _BlockStack(blocks)

        self.branches = [
            self.add(f"branch{i}", stack(2 * config.in_channels, config.input_branch_channels))
            for i in range(4)
        ]
        fused = 4 * config.input_branch_channels[-1]
        self.main = self.add(
            "main", stack(fused, config.main_branch_channels, strided_block=STRIDED_MAIN_BLOCK)
        )
        self.classifier = self.add(
            "classifier", Linear(config.main_branch_channels[-1], config.num_classes, rng)
        )

    def forward(self, streams, training=False):
        if len(streams) != 4:
            raise ContractError(f"expected 4 input streams, got {len(streams)}")
        expect_c = 2 * self.config.in_channels
        for s in streams:
            if s.ndim != 4 or s.shape[1] != expect_c or s.shape[3] != self.config.num_nodes:
                raise ContractError(
                    f"stream shape {s.shape} does not match (B, {expect_c}, T, "
                    f"{self.config.num_nodes})"
                )
        feats = [br.forward(s, training) for br, s in zip(self.branches, streams)]
        x = self.main.forward(np.concatenate(feats, axis=1), training)
        self._cache = x.shape if training else None
        pooled = x.mean(axis=(2, 3))
        return self.classifier.forward(pooled, training)

    def backward(self, grad_logits):
        B, C, T, N = shape = self._saved()
        gp = self.classifier.backward(grad_logits)
        gx = np.broadcast_to(gp[:, :, None, None], shape) / (T * N)
        gx = self.main.backward(np.ascontiguousarray(gx))
        bc = self.config.input_branch_channels[-1]
        return [
            br.backward(gx[:, i * bc : (i + 1) * bc]) for i, br in enumerate(self.branches)
        ]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    logits = np.atleast_2d(logits)
    labels = np.atleast_1d(labels)
    B, K = logits.shape
    if labels.min() < 0 or labels.max() >= K:
        raise InputError(f"label out of range for {K} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(B), labels].mean()
    grad = np.exp(logp)
    grad[np.arange(B), labels] -= 1.0
    return float(loss), grad / B


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
