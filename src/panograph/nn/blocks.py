"""Composite blocks: multi-scale TCN and the SGC/TCN/attention basic block."""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .core import Module, kaiming_uniform, workspace
from .layers import (
    BatchNorm,
    Conv1x1,
    MaxPoolT,
    ReLU,
    SpatialGraphConv,
    STPAttention,
    TemporalConv,
)


def _rebuild(name, bn, x=None, res=None):
    """relu(bn's training output, plus x or res(x) if x is given) as the forward made it,
    from bn's cached x_hat, in workspace buffer ``name``; res re-caches x."""
    y = bn.affine(workspace(name, bn._saved()[0].shape))
    if x is not None:
        y += x if res is None else res.forward(x, training=True)
    return np.maximum(y, 0.0, out=y)


class _ConvBranch(Module):
    """BN -> ReLU -> dilated 3x1 temporal conv on its slice of the TCN bottleneck output.

    The conv always runs its eval forward, which keeps no im2col; backward rebuilds the
    ReLU output (``_rebuild`` into "tcn.relu") and hands it to the conv for its backward only.
    """

    def __init__(self, branch_channels, rng, stride, dilation):
        super().__init__()
        self.bn = self.add("bn", BatchNorm(branch_channels))
        self.relu = self.add("relu", ReLU())
        self.tconv = self.add(
            "tconv",
            TemporalConv(branch_channels, branch_channels, rng, stride=stride, dilation=dilation),
        )

    def forward(self, y, training=False):
        return self.tconv.forward(self.relu.forward(self.bn.forward(y, training), training))

    def backward(self, grad_out):
        self.tconv.hold_input(_rebuild("tcn.relu", self.bn))
        g = self.tconv.backward(grad_out)
        self.tconv.hold_input(None)
        return self.bn.backward(self.relu.backward(g))


class _PoolBranch(Module):
    """BN -> ReLU -> 3x1 temporal max pooling; see _ConvBranch."""

    def __init__(self, branch_channels, stride):
        super().__init__()
        self.bn = self.add("bn", BatchNorm(branch_channels))
        self.relu = self.add("relu", ReLU())
        self.pool = self.add("pool", MaxPoolT(stride=stride))

    def forward(self, y, training=False):
        return self.pool.forward(self.relu.forward(self.bn.forward(y, training), training), training)

    def backward(self, grad_out):
        return self.bn.backward(self.relu.backward(self.pool.backward(grad_out)))


class MultiScaleTCN(Module):
    """Four-branch temporal layer; branch outputs concatenate to out_channels.

    Branches: 3x1 conv at dilation 1, 3x1 conv at dilation 2, 3x1 max
    pooling, and a plain (strided) 1x1 projection. All branches share the
    block stride so T_out = ceil(T / stride). The four 1x1 bottlenecks are
    one weight ``w`` of shape (4 * bc, C_in) applied as one gemm: branch i
    continues from channel slice i of its output, and the plain branch's
    output is its strided slice.
    """

    def __init__(self, in_channels, out_channels, rng, stride=1):
        super().__init__()
        if out_channels % 4 != 0:
            raise ConfigError(f"TCN output channels {out_channels} not divisible by 4")
        bc = out_channels // 4
        self.branch_channels = bc
        self.stride = stride

        def rows():
            return kaiming_uniform(rng, (bc, in_channels), in_channels)

        # each row block is drawn just before its branch's own weights (the plain branch has none)
        w0, b0 = rows(), _ConvBranch(bc, rng, stride, dilation=1)
        w1, b1 = rows(), _ConvBranch(bc, rng, stride, dilation=2)
        w2, b2 = rows(), _PoolBranch(bc, stride)
        self.w = self.param("w", np.concatenate([w0, w1, w2, rows()]))
        self.branches = [self.add(f"b{i}", b) for i, b in enumerate((b0, b1, b2))]

    def forward(self, x, training=False):
        self._cache, bc = (x,) if training else None, self.branch_channels
        B, C, T, N = x.shape
        y = (self.w @ x.reshape(B, C, T * N)).reshape(B, -1, T, N)
        # eval BN and ReLU work in place on the disjoint channel slices of the fresh y;
        # the plain branch's slice is only read, by the concatenate
        outs = [b.forward(y[:, i * bc : (i + 1) * bc], training) for i, b in enumerate(self.branches)]
        return np.concatenate(outs + [y[:, 3 * bc :, :: self.stride]], axis=1)

    def backward(self, grad_out):
        (x,), bc, s = self._saved(), self.branch_channels, self.stride
        B, C, T, N = x.shape
        gy = workspace("grad", (B, 4 * bc, T, N))  # stale: every entry is written below
        for i, b in enumerate(self.branches):
            gy[:, i * bc : (i + 1) * bc] = b.backward(grad_out[:, i * bc : (i + 1) * bc])
        gy[:, 3 * bc :, ::s] = grad_out[:, 3 * bc :]
        for skipped in range(1, s):  # frames the strided plain branch does not read
            gy[:, 3 * bc :, skipped::s] = 0.0
        g2 = gy.reshape(B, -1, T * N)
        self._grads["w"] += np.matmul(g2, x.reshape(B, C, T * N).transpose(0, 2, 1)).sum(axis=0)
        return (self.w.T @ g2).reshape(B, C, T, N)


# Graphs of at most this many nodes run the SGC as one dense block: there the
# per-person blocks and hub gather/scatter cost more than the zeros they skip.
DENSE_SGC_MAX_NODES = 32


class BasicBlock(Module):
    """SGC -> multi-scale TCN -> person attention, with residual links.

    y1 = relu(bn(SGC(x)) + res(x));  y2 = relu(bn(TCN(y1)) + res(y1));
    y3 = y2 + y2 * att. Residual projections are 1x1 whenever channels or
    frame count change; the TCN stage's residual reads every stride-th frame
    of y1. The SGC is dense up to DENSE_SGC_MAX_NODES nodes and per-person
    above. A training forward keeps x, not y1 or y2: backward rebuilds them from x
    and the BNs' x_hat by the forward's own operations, in the shared workspace.
    """

    def __init__(self, in_channels, out_channels, adjacency, nodes_per_person, rng, stride=1):
        super().__init__()
        self.stride = stride
        n = adjacency.shape[1]
        block = n if n <= DENSE_SGC_MAX_NODES else nodes_per_person
        self.sgc = self.add(
            "sgc", SpatialGraphConv(in_channels, out_channels, adjacency, block, rng)
        )
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
            self.res2 = self.add("res2", Conv1x1(out_channels, out_channels, rng))
        self.att = self.add("att", STPAttention(out_channels, nodes_per_person, rng))

    def forward(self, x, training=False):
        # Eval BN and ReLU overwrite their input, so each gets a fresh array only it holds:
        # bn1 the SGC output, bn2 the TCN's concatenate, relu1/relu2 the BN output plus the
        # residual (no layer caches a BN or attention output, so the adds go in place).
        s = self.bn1.forward(self.sgc.forward(x, training), training)
        s += x if self.res1 is None else self.res1.forward(x, training)
        y1 = self.relu1.forward(s, training)
        t = self.bn2.forward(self.tcn.forward(y1, training), training)
        y1s = y1[:, :, :: self.stride]
        t += y1s if self.res2 is None else self.res2.forward(y1s, training)
        y2 = self.relu2.forward(t, training)
        out = self.att.forward(y2, training)
        out += y2
        self._cache = x if training else None
        if training:
            self._drop_y()
        return out

    def _drop_y(self):
        """tcn, att and res2 forget their input, y1 or y2; backward hands it back."""
        for child in filter(None, (self.tcn, self.att, self.res2)):
            child.hold_input(None)

    def backward(self, grad_out):
        y1 = _rebuild("block.y1", self.bn1, self._saved(), self.res1)
        y2 = _rebuild("block.y2", self.bn2, y1[:, :, :: self.stride], self.res2)
        self.tcn.hold_input(y1)
        self.att.hold_input(y2)
        gy2 = self.att.backward(grad_out)
        gy2 += grad_out
        gpre2 = self.relu2.backward(gy2)
        gy1 = self.tcn.backward(self.bn2.backward(gpre2))
        gy1[:, :, :: self.stride] += gpre2 if self.res2 is None else self.res2.backward(gpre2)
        self._drop_y()
        gpre1 = self.relu1.backward(gy1)
        gx = self.sgc.backward(self.bn1.backward(gpre1))
        gx += gpre1 if self.res1 is None else self.res1.backward(gpre1)
        return gx
