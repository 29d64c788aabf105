"""Primitive layers on (B, C, T, N) tensors with manual backward passes."""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ContractError
from .core import Module, kaiming_uniform


class ReLU(Module):
    """Rectifier; ``_freeze_kinks`` pins the active set for FD probing."""

    def forward(self, x, training=False):
        if not getattr(self, "_freeze_kinks", False):
            self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out):
        return grad_out * self._mask


class Conv1x1(Module):
    """Pointwise channel transform with bias, optionally with temporal subsampling."""

    def __init__(self, in_channels, out_channels, rng, stride=1):
        super().__init__()
        self.stride = stride
        self.w = self.param("w", kaiming_uniform(rng, (out_channels, in_channels), in_channels))
        self.b = self.param("b", np.zeros(out_channels))

    def forward(self, x, training=False):
        self._full_T = x.shape[2]
        if self.stride > 1:
            x = x[:, :, :: self.stride, :]
        self._x = x
        B, C, T, N = x.shape
        y = (self.w @ x.reshape(B, C, T * N)).reshape(B, -1, T, N)
        y += self.b[None, :, None, None]
        return y

    def backward(self, grad_out):
        B, O, T, N = grad_out.shape
        g2 = grad_out.reshape(B, O, T * N)
        x2 = self._x.reshape(B, -1, T * N)
        self._grads["w"] += np.einsum("bol,bcl->oc", g2, x2)
        self._grads["b"] += grad_out.sum(axis=(0, 2, 3))
        gx = (self.w.T @ g2).reshape(B, -1, T, N)
        if self.stride > 1:
            full = np.zeros(
                (gx.shape[0], gx.shape[1], self._full_T, gx.shape[3]), dtype=gx.dtype
            )
            full[:, :, :: self.stride, :] = gx
            return full
        return gx


class TemporalConv(Module):
    """3 x 1 convolution along the frame axis with dilation and stride.

    Symmetric zero padding keeps T_out = ceil(T / stride).
    """

    def __init__(self, in_channels, out_channels, rng, stride=1, dilation=1):
        super().__init__()
        self.kernel = 3
        self.stride = stride
        self.dilation = dilation
        shape = (out_channels, in_channels, self.kernel)
        self.w = self.param("w", kaiming_uniform(rng, shape, in_channels * self.kernel))
        self.b = self.param("b", np.zeros(out_channels))

    def _window_index(self, T):
        # (kernel, T_out) tap positions into the padded sequence
        pad = self.dilation * (self.kernel - 1) // 2
        T_out = (T - 1) // self.stride + 1
        starts = self.stride * np.arange(T_out)
        taps = self.dilation * np.arange(self.kernel)
        return pad, T_out, taps[:, None] + starts[None, :]

    def forward(self, x, training=False):
        B, C, T, N = x.shape
        pad, T_out, idx = self._window_index(T)
        xp = np.zeros((B, C, T + 2 * pad, N), dtype=x.dtype)
        xp[:, :, pad : pad + T, :] = x
        xw = xp[:, :, idx, :]  # (B, C, kernel, T_out, N)
        xw2 = xw.reshape(B, C * self.kernel, T_out * N)
        self._cache = (xw2, T, T_out, pad, idx)
        O = self.w.shape[0]
        y = (self.w.reshape(O, -1) @ xw2).reshape(B, O, T_out, N)
        return y + self.b[None, :, None, None]

    def backward(self, grad_out):
        xw2, T, T_out, pad, idx = self._cache
        B, O, _, N = grad_out.shape
        g2 = grad_out.reshape(B, O, T_out * N)
        self._grads["w"] += np.einsum("bol,bkl->ok", g2, xw2).reshape(self.w.shape)
        self._grads["b"] += grad_out.sum(axis=(0, 2, 3))
        gxw = (self.w.reshape(O, -1).T @ g2).reshape(B, -1, self.kernel, T_out, N)
        gxp = np.zeros((B, gxw.shape[1], T + 2 * pad, N), dtype=grad_out.dtype)
        for k in range(self.kernel):
            gxp[:, :, idx[k], :] += gxw[:, :, k]
        return gxp[:, :, pad : pad + T, :]


class MaxPoolT(Module):
    """Temporal max pooling, window 3, same padding, configurable stride."""

    def __init__(self, stride=1):
        super().__init__()
        self.kernel = 3
        self.stride = stride

    def forward(self, x, training=False):
        B, C, T, N = x.shape
        pad = (self.kernel - 1) // 2
        T_out = (T - 1) // self.stride + 1
        xp = np.full((B, C, T + 2 * pad, N), -np.inf, dtype=x.dtype)
        xp[:, :, pad : pad + T, :] = x
        idx = self.stride * np.arange(T_out)[:, None] + np.arange(self.kernel)[None, :]
        xw = xp[:, :, idx, :]  # (B, C, T_out, kernel, N)
        if not getattr(self, "_freeze_kinks", False):
            self._argmax = xw.argmax(axis=3)
        self._dims = (B, C, T, N, pad, T_out)
        return np.take_along_axis(xw, self._argmax[:, :, :, None, :], axis=3)[:, :, :, 0, :]

    def backward(self, grad_out):
        B, C, T, N, pad, T_out = self._dims
        gxp = np.zeros((B, C, T + 2 * pad, N), dtype=grad_out.dtype)
        b_i = np.arange(B)[:, None, None, None]
        c_i = np.arange(C)[None, :, None, None]
        n_i = np.arange(N)[None, None, None, :]
        t_i = self.stride * np.arange(T_out)[None, None, :, None] + self._argmax
        np.add.at(gxp, (b_i, c_i, t_i, n_i), grad_out)
        return gxp[:, :, pad : pad + T, :]


class BatchNorm(Module):
    """Per-channel normalization over (batch, frames, nodes)."""

    def __init__(self, channels):
        super().__init__()
        self.momentum = 0.9
        self.eps = 1e-5
        self.gamma = self.param("gamma", np.ones(channels))
        self.beta = self.param("beta", np.zeros(channels))
        self.running_mean = self.buffer("running_mean", np.zeros(channels))
        self.running_var = self.buffer("running_var", np.ones(channels))

    def forward(self, x, training=False):
        if training:
            B, C, T, N = x.shape
            cnt = B * T * N
            flat = x.reshape(B, C, T * N)
            mean = np.add.reduce(flat, axis=(0, 2)) / cnt
            # max() guards the E[x^2] - mean^2 cancellation from going negative
            var = np.maximum(np.add.reduce(flat * flat, axis=(0, 2)) / cnt - mean * mean, 0.0)
            self.running_mean *= self.momentum
            self.running_mean += (1 - self.momentum) * mean
            self.running_var *= self.momentum
            self.running_var += (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        # fused affine: y = x * (gamma/std) + (beta - gamma*mean/std)
        coef = self.gamma * inv_std
        self._cache = (x, mean, inv_std, training)
        return x * coef[None, :, None, None] + (self.beta - mean * coef)[None, :, None, None]

    def backward(self, grad_out):
        x, mean, inv_std, training = self._cache
        shape = x.shape
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        axes = (0, 2, 3)
        self._grads["beta"] += grad_out.sum(axis=axes)
        self._grads["gamma"] += (grad_out * xhat).sum(axis=axes)
        dxhat = grad_out * self.gamma[None, :, None, None]
        if not training:
            return dxhat * inv_std[None, :, None, None]
        m = shape[0] * shape[2] * shape[3]
        sum_d = dxhat.sum(axis=axes, keepdims=True)
        sum_dx = (dxhat * xhat).sum(axis=axes, keepdims=True)
        return (inv_std[None, :, None, None] / m) * (m * dxhat - sum_d - xhat * sum_dx)


class SpatialGraphConv(Module):
    """Partitioned graph convolution: sum_k (E_k * A_hat_k) x W_k per frame.

    ``adjacency`` is the (3, N, N) stack of normalized partitions; E_k is a
    learnable elementwise mask initialized to ones.
    """

    def __init__(self, in_channels, out_channels, adjacency, rng):
        super().__init__()
        self.adjacency = adjacency
        self.K = adjacency.shape[0]
        n = adjacency.shape[1]
        for k in range(self.K):
            self.param(f"W{k}", kaiming_uniform(rng, (in_channels, out_channels), in_channels))
            self.param(f"E{k}", np.ones((n, n)))

    def forward(self, x, training=False):
        if x.shape[3] != self.adjacency.shape[1]:
            raise ContractError(
                f"node dim {x.shape[3]} does not match adjacency {self.adjacency.shape[1]}"
            )
        self._x = x
        self._z = []
        B, C, T, N = x.shape
        out = None
        for k in range(self.K):
            mk = self._params[f"E{k}"] * self.adjacency[k]
            z = x @ mk.T  # (B, C, T, N): aggregate neighbors per frame
            self._z.append(z)
            wk = self._params[f"W{k}"]
            term = (wk.T @ z.reshape(B, C, T * N)).reshape(B, -1, T, N)
            out = term if out is None else out + term
        return out

    def backward(self, grad_out):
        B, C, T, N = self._x.shape
        gx = np.zeros_like(self._x)
        g2 = grad_out.reshape(B, -1, T * N)
        x2 = self._x.reshape(B, C, T * N)
        for k in range(self.K):
            wk = self._params[f"W{k}"]
            z2 = self._z[k].reshape(B, C, T * N)
            self._grads[f"W{k}"] += np.einsum("bcl,bol->co", z2, g2)
            gz = (wk @ g2).reshape(B, C, T, N)
            gm = np.einsum("bctl,bctj->lj", gz, self._x)
            self._grads[f"E{k}"] += gm * self.adjacency[k]
            mk = self._params[f"E{k}"] * self.adjacency[k]
            gx += gz @ mk
        return gx


class Linear(Module):
    def __init__(self, in_features, out_features, rng):
        super().__init__()
        self.w = self.param("w", kaiming_uniform(rng, (out_features, in_features), in_features))
        self.b = self.param("b", np.zeros(out_features))

    def forward(self, x, training=False):
        self._x = x
        return x @ self.w.T + self.b

    def backward(self, grad_out):
        self._grads["w"] += grad_out.T @ self._x
        self._grads["b"] += grad_out.sum(axis=0)
        return grad_out @ self.w


def _sigmoid(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


class STPAttention(Module):
    """Spatial-temporal person attention.

    Averages features over frames/joints into a person descriptor and over
    all nodes into a frame descriptor, projects the concatenated C x (M+T)
    map through a shared bottleneck and a scoring kernel, and rescales the
    input by the outer product of the sigmoided person and frame scores.
    """

    def __init__(self, channels, num_persons, nodes_per_person, rng):
        super().__init__()
        if channels % 4 != 0:
            raise ConfigError(f"attention channels {channels} not divisible by reduction 4")
        hidden = channels // 4
        self.M = num_persons
        self.Np = nodes_per_person
        self.w1 = self.param("w1", kaiming_uniform(rng, (hidden, channels), channels))
        self.b1 = self.param("b1", np.zeros(hidden))
        self.w2 = self.param("w2", kaiming_uniform(rng, (hidden,), hidden))
        self.b2 = self.param("b2", np.zeros(1))

    def forward(self, x, training=False):
        B, C, T, N = x.shape
        M, Np = self.M, self.Np
        if N != M * Np:
            raise ContractError(f"node dim {N} does not factor as {M}x{Np}")
        x5 = x.reshape(B, C, T, M, Np)
        person = np.add.reduce(x5, axis=(2, 4)) / (T * Np)  # (B, C, M)
        frame = np.add.reduce(x, axis=3) / N  # (B, C, T)
        z = np.concatenate([person, frame], axis=2)  # (B, C, M+T)
        pre = np.einsum("rc,bcl->brl", self.w1, z) + self.b1[None, :, None]
        if not getattr(self, "_freeze_kinks", False):
            self._relu_mask = pre > 0.0
        h = pre * self._relu_mask
        u = np.einsum("r,brl->bl", self.w2, h) + self.b2
        person_score = _sigmoid(u[:, :M])  # (B, M)
        frame_score = _sigmoid(u[:, M:])  # (B, T)
        att = frame_score[:, :, None] * person_score[:, None, :]  # (B, T, M)
        out = x5 * att[:, None, :, :, None]
        self._cache = (x5, z, pre, h, person_score, frame_score, att)
        return out.reshape(B, C, T, N)

    def backward(self, grad_out):
        x5, z, pre, h, ps, fs, att = self._cache
        B, C, T, M, Np = x5.shape
        g5 = grad_out.reshape(B, C, T, M, Np)
        gx5 = g5 * att[:, None, :, :, None]
        gatt = (g5 * x5).sum(axis=(1, 4))  # (B, T, M)
        gfs = (gatt * ps[:, None, :]).sum(axis=2)
        gps = (gatt * fs[:, :, None]).sum(axis=1)
        gu = np.concatenate([gps * ps * (1 - ps), gfs * fs * (1 - fs)], axis=1)
        self._grads["w2"] += np.einsum("bl,brl->r", gu, h)
        self._grads["b2"] += gu.sum(keepdims=True).reshape(1)
        gh = gu[:, None, :] * self.w2[None, :, None]
        gh = gh * self._relu_mask
        self._grads["w1"] += np.einsum("brl,bcl->rc", gh, z)
        self._grads["b1"] += gh.sum(axis=(0, 2))
        gz = np.einsum("rc,brl->bcl", self.w1, gh)
        gperson, gframe = gz[:, :, :M], gz[:, :, M:]
        gx5 += gperson[:, :, None, :, None] / (T * Np)
        gx5 += gframe[:, :, :, None, None] / (M * Np)
        return gx5.reshape(B, C, T, M * Np)
