"""Composite blocks: multi-scale TCN and the SGC/TCN/attention basic block."""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .core import Module
from .layers import (
    BatchNorm,
    Conv1x1,
    MaxPoolT,
    ReLU,
    SpatialGraphConv,
    STPAttention,
    TemporalConv,
)


class _ConvBranch(Module):
    """bottleneck -> BN -> ReLU -> dilated 3x1 temporal conv."""

    def __init__(self, in_channels, branch_channels, rng, stride, dilation):
        super().__init__()
        self.bottleneck = self.add("bottleneck", Conv1x1(in_channels, branch_channels, rng))
        self.bn = self.add("bn", BatchNorm(branch_channels))
        self.relu = self.add("relu", ReLU())
        self.tconv = self.add(
            "tconv",
            TemporalConv(branch_channels, branch_channels, rng, stride=stride, dilation=dilation),
        )

    def forward(self, x, training=False):
        y = self.relu.forward(self.bn.forward(self.bottleneck.forward(x), training))
        return self.tconv.forward(y, training)

    def backward(self, grad_out):
        g = self.tconv.backward(grad_out)
        return self.bottleneck.backward(self.bn.backward(self.relu.backward(g)))


class _PoolBranch(Module):
    """bottleneck -> BN -> ReLU -> 3x1 temporal max pooling."""

    def __init__(self, in_channels, branch_channels, rng, stride):
        super().__init__()
        self.bottleneck = self.add("bottleneck", Conv1x1(in_channels, branch_channels, rng))
        self.bn = self.add("bn", BatchNorm(branch_channels))
        self.relu = self.add("relu", ReLU())
        self.pool = self.add("pool", MaxPoolT(stride=stride))

    def forward(self, x, training=False):
        y = self.relu.forward(self.bn.forward(self.bottleneck.forward(x), training))
        return self.pool.forward(y, training)

    def backward(self, grad_out):
        g = self.pool.backward(grad_out)
        return self.bottleneck.backward(self.bn.backward(self.relu.backward(g)))


class MultiScaleTCN(Module):
    """Four-branch temporal layer; branch outputs concatenate to out_channels.

    Branches: 3x1 conv at dilation 1, 3x1 conv at dilation 2, 3x1 max
    pooling, and a plain (strided) bottleneck. All branches share the block
    stride so T_out = ceil(T / stride).
    """

    def __init__(self, in_channels, out_channels, rng, stride=1):
        super().__init__()
        if out_channels % 4 != 0:
            raise ConfigError(f"TCN output channels {out_channels} not divisible by 4")
        bc = out_channels // 4
        self.branch_channels = bc
        self.branches = [
            self.add("b0", _ConvBranch(in_channels, bc, rng, stride, dilation=1)),
            self.add("b1", _ConvBranch(in_channels, bc, rng, stride, dilation=2)),
            self.add("b2", _PoolBranch(in_channels, bc, rng, stride)),
            self.add("b3", Conv1x1(in_channels, bc, rng, stride=stride)),
        ]

    def forward(self, x, training=False):
        return np.concatenate([b.forward(x, training) for b in self.branches], axis=1)

    def backward(self, grad_out):
        bc = self.branch_channels
        gx = None
        for i, branch in enumerate(self.branches):
            g = branch.backward(grad_out[:, i * bc : (i + 1) * bc])
            gx = g if gx is None else gx + g
        return gx


class BasicBlock(Module):
    """SGC -> multi-scale TCN -> person attention, with residual links.

    y1 = relu(bn(SGC(x)) + res(x));  y2 = relu(bn(TCN(y1)) + res(y1));
    y3 = y2 + y2 * att. Residual projections are 1x1 (strided for the TCN
    stage) whenever channels or frame count change.
    """

    def __init__(
        self, in_channels, out_channels, adjacency, num_persons, nodes_per_person, rng, stride=1
    ):
        super().__init__()
        self.stride = stride
        self.sgc = self.add("sgc", SpatialGraphConv(in_channels, out_channels, adjacency, rng))
        self.bn1 = self.add("bn1", BatchNorm(out_channels))
        self.relu1 = self.add("relu1", ReLU())
        self.res1 = None
        if in_channels != out_channels:
            self.res1 = self.add("res1", Conv1x1(in_channels, out_channels, rng))
        self.tcn = self.add("tcn", MultiScaleTCN(out_channels, out_channels, rng, stride=stride))
        self.bn2 = self.add("bn2", BatchNorm(out_channels))
        self.relu2 = self.add("relu2", ReLU())
        self.res2 = None
        if stride != 1:
            self.res2 = self.add("res2", Conv1x1(out_channels, out_channels, rng, stride=stride))
        self.att = self.add("att", STPAttention(out_channels, num_persons, nodes_per_person, rng))

    def forward(self, x, training=False):
        s = self.bn1.forward(self.sgc.forward(x, training), training)
        r1 = x if self.res1 is None else self.res1.forward(x, training)
        y1 = self.relu1.forward(s + r1)
        t = self.bn2.forward(self.tcn.forward(y1, training), training)
        r2 = y1 if self.res2 is None else self.res2.forward(y1, training)
        y2 = self.relu2.forward(t + r2)
        return y2 + self.att.forward(y2, training)

    def backward(self, grad_out):
        gy2 = grad_out + self.att.backward(grad_out)
        gpre2 = self.relu2.backward(gy2)
        gy1 = self.tcn.backward(self.bn2.backward(gpre2))
        gy1 += gpre2 if self.res2 is None else self.res2.backward(gpre2)
        gpre1 = self.relu1.backward(gy1)
        gx = self.sgc.backward(self.bn1.backward(gpre1))
        gx += gpre1 if self.res1 is None else self.res1.backward(gpre1)
        return gx
