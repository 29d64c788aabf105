"""Primitive layers on (B, C, T, N) tensors with manual backward passes."""
from __future__ import annotations

import functools

import numpy as np

from ..errors import ConfigError, ContractError
from .core import Module, kaiming_uniform, workspace


class ReLU(Module):
    """Rectifier; eval works in place on ``x``, ``_freeze_kinks`` pins the active set."""

    def forward(self, x, training=False):
        if not training:
            self._cache = None
            return np.maximum(x, 0.0, out=x)
        if self._freeze_kinks:
            return x * self._saved()
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out):
        return grad_out * self._saved()


class Conv1x1(Module):
    """Pointwise channel transform."""

    def __init__(self, in_channels, out_channels, rng):
        super().__init__()
        self.w = self.param("w", kaiming_uniform(rng, (out_channels, in_channels), in_channels))

    def forward(self, x, training=False):
        self._cache = (x,) if training else None  # panobench's flop count reads _cache[0].shape
        B, C, T, N = x.shape
        return (self.w @ x.reshape(B, C, T * N)).reshape(B, -1, T, N)

    def backward(self, grad_out):
        (x,) = self._saved()
        B, O, T, N = grad_out.shape
        g2 = grad_out.reshape(B, O, T * N)
        self._grads["w"] += np.matmul(g2, x.reshape(B, -1, T * N).transpose(0, 2, 1)).sum(axis=0)
        return (self.w.T @ g2).reshape(B, -1, T, N)


@functools.lru_cache(maxsize=64)
def _frame_taps(T, stride, offsets):
    """T_out and one (output frames, input frames) slice pair per tap offset.

    The window at output frame t reads input frame stride * t + o for each
    offset o, with T_out = ceil(T / stride). Each pair keeps only the output
    frames whose tap lands inside [0, T), so a tap is one strided frame
    slice of the input and no padded copy is needed. Cached: at small
    shapes this arithmetic costs as much as the pooling itself.
    """
    T_out = (T - 1) // stride + 1
    taps = []
    for o in offsets:
        lo = max(0, -(o // stride))  # first t with stride * t + o >= 0
        hi = max(lo, min(T_out, (T - 1 - o) // stride + 1))
        start = stride * lo + o
        taps.append((slice(lo, hi), slice(start, start + stride * (hi - lo), stride)))
    return T_out, tuple(taps)


class TemporalConv(Module):
    """3 x 1 convolution along the frame axis with dilation and stride.

    Symmetric zero padding keeps T_out = ceil(T / stride). The im2col
    buffer is filled tap by tap from frame slices; only the out-of-clip
    edges are zeroed. A training forward caches the im2col; ``hold_input``
    rebuilds it from the input into the workspace, for a caller that drops it.
    """

    def __init__(self, in_channels, out_channels, rng, stride=1, dilation=1):
        super().__init__()
        self.kernel = 3
        self.stride = stride
        self.dilation = dilation
        shape = (out_channels, in_channels, self.kernel)
        self.w = self.param("w", kaiming_uniform(rng, shape, in_channels * self.kernel))

    def _im2col(self, x, name=None):
        """The training cache: x's (B, C * 3, T_out * N) windows (in workspace buffer
        ``name`` if given, else a fresh array), T and the taps."""
        B, C, T, N = x.shape
        T_out, taps = _frame_taps(T, self.stride, (-self.dilation, 0, self.dilation))
        shape = (B, C, self.kernel, T_out, N)
        xw = np.empty(shape, dtype=x.dtype) if name is None else workspace(name, shape)
        for k, (t, f) in enumerate(taps):
            xw[:, :, k, t] = x[:, :, f]
            xw[:, :, k, : t.start] = 0.0
            xw[:, :, k, t.stop :] = 0.0
        return xw.reshape(B, C * self.kernel, T_out * N), T, taps

    def forward(self, x, training=False):
        cache = self._im2col(x)
        self._cache = cache if training else None  # panobench's flop count reads _cache[0].shape
        B, O, N = len(x), self.w.shape[0], x.shape[3]
        return (self.w.reshape(O, -1) @ cache[0]).reshape(B, O, -1, N)

    def hold_input(self, x):
        """Cache the im2col of x, rebuilt in workspace buffer "tcn.cols", or drop it (None)."""
        self._cache = None if x is None else self._im2col(x, "tcn.cols")

    def backward(self, grad_out):
        xw2, T, taps = self._saved()
        B, O, T_out, N = grad_out.shape
        g2 = grad_out.reshape(B, O, T_out * N)
        self._grads["w"] += np.matmul(g2, xw2.transpose(0, 2, 1)).sum(axis=0).reshape(self.w.shape)
        gxw = (self.w.reshape(O, -1).T @ g2).reshape(B, -1, self.kernel, T_out, N)
        gx = np.zeros((B, gxw.shape[1], T, N), dtype=grad_out.dtype)
        for k, (t, f) in enumerate(taps):
            gx[:, :, f] += gxw[:, :, k, t]
        return gx


class MaxPoolT(Module):
    """Temporal max pooling, window 3, same padding, configurable stride.

    The window at output frame t reads frames s*t - 1, s*t, s*t + 1 inside
    the clip (taps 0, 1, 2), each one frame slice of the input; the centre
    tap covers every output frame. A training forward caches the winning
    tap as int8 in ``_cache[0]``: the first tap equal to the max, as ``np.argmax``.
    """

    def __init__(self, stride=1):
        super().__init__()
        self.stride = stride

    def forward(self, x, training=False):
        _, taps = _frame_taps(x.shape[2], self.stride, (-1, 0, 1))
        (t0, f0), (_, centre), (t2, f2) = taps
        out = x[:, :, centre].copy()
        if training and self._freeze_kinks:
            am = self._saved()[0]
            for k in (0, 2):
                t, f = taps[k]
                np.copyto(out[:, :, t], x[:, :, f], where=am[:, :, t] == k)
            return out
        np.maximum(x[:, :, f0], out[:, :, t0], out=out[:, :, t0])
        np.maximum(out[:, :, t2], x[:, :, f2], out=out[:, :, t2])
        self._cache = None
        if training:  # the winning tap is the first equal to the max: 0, else 1, else 2
            am = np.not_equal(x[:, :, centre], out).view(np.int8) + np.int8(1)
            am[:, :, t0] *= np.not_equal(x[:, :, f0], out[:, :, t0])
            self._cache = (am, x.shape, taps)
        return out

    def backward(self, grad_out):
        am, shape, taps = self._saved()
        gx = np.zeros(shape, dtype=grad_out.dtype)
        # taps 2, 1, 0: each frame sums the shares of its windows in window order
        for k in reversed(range(3)):
            t, f = taps[k]
            gx[:, :, f] += grad_out[:, :, t] * (am[:, :, t] == k)
        return gx


def _channel_dot(a, b):
    """Per-channel sum of a * b over (batch, frames, nodes), one dot per (b, c)."""
    B, C = a.shape[:2]
    a3, b3 = a.reshape(B, C, 1, -1), b.reshape(B, C, -1, 1)
    return np.matmul(a3, b3).sum(axis=0).reshape(C)


class BatchNorm(Module):
    """Per-channel normalization over (batch, frames, nodes).

    Training takes the variance from the centred x - mean (two passes), so a
    large channel mean does not cancel it, and caches x_hat for the backward.
    Eval applies the running-statistics affine to ``x`` in place and returns it.
    """

    def __init__(self, channels):
        super().__init__()
        self.momentum = 0.9
        self.eps = 1e-5
        self.gamma = self.param("gamma", np.ones(channels))
        self.beta = self.param("beta", np.zeros(channels))
        self.running_mean = self.buffer("running_mean", np.zeros(channels))
        self.running_var = self.buffer("running_var", np.ones(channels))

    def forward(self, x, training=False):
        if not training:
            coef = self.gamma * (1.0 / np.sqrt(self.running_var + self.eps))
            self._cache = None
            x *= coef[:, None, None]
            x += (self.beta - self.running_mean * coef)[:, None, None]
            return x
        B, C, T, N = x.shape
        m = B * T * N
        mean = np.add.reduce(x.reshape(B, C, T * N), axis=(0, 2)) / m
        xhat = x - mean[:, None, None]
        var = _channel_dot(xhat, xhat) / m
        self.running_mean *= self.momentum
        self.running_mean += (1 - self.momentum) * mean
        self.running_var *= self.momentum
        self.running_var += (1 - self.momentum) * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std[:, None, None]
        self._cache = (xhat, inv_std)
        return self.affine()

    def affine(self, out=None):
        """The training output x_hat * gamma + beta from the cached x_hat, into ``out``."""
        y = np.multiply(self._saved()[0], self.gamma[:, None, None], out=out)
        return np.add(y, self.beta[:, None, None], out=y)

    def backward(self, grad_out):
        cached, inv_std = self._saved()
        B, _, T, N = grad_out.shape
        m = B * T * N
        dbeta = grad_out.sum(axis=(0, 2, 3))
        dgamma = _channel_dot(grad_out, cached)
        self._grads["beta"] += dbeta
        self._grads["gamma"] += dgamma
        # gx = gamma * inv_std * (g - (dbeta + x_hat * dgamma) / m), in one buffer
        gx = cached * (dgamma / m)[:, None, None]
        gx += (dbeta / m)[:, None, None]
        np.subtract(grad_out, gx, out=gx)
        gx *= (self.gamma * inv_std)[:, None, None]
        return gx


class SpatialGraphConv(Module):
    """Partitioned graph convolution: sum_k (E_k * A_hat_k) x W_k per frame.

    ``adjacency`` is the (3, N, N) stack of normalized partitions; E_k is a
    learnable elementwise mask initialized to ones. Node i belongs to person
    i // nodes_per_person, and each partition's support splits in two:
    the within-person diagonal blocks, aggregated into a stacked buffer that
    a single gemm mixes over the stacked W_k, and the cross-person entries,
    aggregated and mixed on their hub nodes only. Blocks with entries off
    their diagonal aggregate by one batched matmul; diagonal ones (the self
    partition) are a node scale s = diag(E_k) * diag(A_k), so their slot is
    x * s and E_k's gradient stays on the diagonal. No product visits the
    zeros between persons; with nodes_per_person = N there is one block and
    no hub, which is the dense product. A training forward caches only x:
    backward rebuilds the aggregates from it by the same operations.
    """

    def __init__(self, in_channels, out_channels, adjacency, nodes_per_person, rng):
        super().__init__()
        K, n, _ = adjacency.shape
        P = nodes_per_person
        if P < 1 or n % P:
            raise ConfigError(f"adjacency of {n} nodes does not split into persons of {P} nodes")
        self.adjacency = adjacency
        self.K = K
        for k in range(K):
            self.param(f"W{k}", kaiming_uniform(rng, (in_channels, out_channels), in_channels))
            self.param(f"E{k}", np.ones((n, n)))
        # flat (M, P, P) indices of the diagonal blocks in an (N, N) matrix
        first = P * np.arange(n // P)[:, None, None]
        self._block_idx = (first + np.arange(P)[:, None]) * n + first + np.arange(P)
        person = np.arange(n) // P
        # (k, A_k on the blocks, or diag(A_k) when the blocks are diagonal) for partitions
        # with within-person entries
        self._blocks = []
        self._hubs = []  # (k, hub nodes, flat hub x hub indices, cross-person A_k there)
        for k in range(K):
            blocks = adjacency[k].take(self._block_idx)
            if (blocks * (1.0 - np.eye(P))).any():
                self._blocks.append((k, blocks))
            elif blocks.any():
                self._blocks.append((k, adjacency[k].diagonal()))
            cross = np.where(person[:, None] == person, 0.0, adjacency[k])
            hubs = np.flatnonzero(cross.any(axis=0) | cross.any(axis=1))
            if hubs.size:
                on_hubs = hubs[:, None] * n + hubs
                self._hubs.append((k, hubs, on_hubs, cross.take(on_hubs)))

    def _stacked_w(self):
        return np.concatenate([self._params[f"W{k}"] for k, _ in self._blocks])

    def _by_person(self, a):
        """(B, C, T, N) -> (B, C*T, M, P) view; transposed (0, 2, 1, 3), a matrix per person."""
        B, C, T, _ = a.shape
        M, P, _ = self._block_idx.shape
        return a.reshape(B, C * T, M, P)

    def _stack(self, x):
        """The within-person aggregates of x, (B, L, C*T, M, P), in the shared workspace."""
        B, C, T, _ = x.shape
        M, P, _ = self._block_idx.shape
        x4 = self._by_person(x)
        z = workspace("sgc.z", (B, len(self._blocks), C * T, M, P))
        for i, (k, a) in enumerate(self._blocks):
            e = self._params[f"E{k}"]
            if a.ndim == 1:  # node scale
                np.multiply(x4, (e.diagonal() * a).reshape(M, P), out=z[:, i])
            else:
                mk = e.take(self._block_idx) * a
                np.matmul(x4.transpose(0, 2, 1, 3), mk.transpose(0, 2, 1),
                          out=z[:, i].transpose(0, 2, 1, 3))
        return z

    def _hub_inputs(self, x, k, hubs, on_hubs, cross):
        """x on the hubs (B, C, T, h), the masked cross-person A_k there and their aggregate."""
        B, C, T, _ = x.shape
        h = hubs.size
        xh = x.take(hubs, axis=3)
        mc = self._params[f"E{k}"].take(on_hubs) * cross
        zc = (xh.reshape(-1, h) @ mc.T).reshape(B, C, T * h)
        return xh, mc, zc

    def forward(self, x, training=False):
        if x.shape[3] != self.adjacency.shape[1]:
            raise ContractError(
                f"node dim {x.shape[3]} does not match adjacency {self.adjacency.shape[1]}"
            )
        B, C, T, N = x.shape
        z = self._stack(x)
        out = (self._stacked_w().T @ z.reshape(B, -1, T * N)).reshape(B, -1, T, N)
        for k, hubs, on_hubs, cross in self._hubs:
            _, _, zc = self._hub_inputs(x, k, hubs, on_hubs, cross)
            mixed = (self._params[f"W{k}"].T @ zc).reshape(B, -1, T, hubs.size)
            out[..., hubs] = out.take(hubs, axis=3) + mixed  # faster than += through an index
        self._cache = (x,) if training else None  # panobench's flop count reads _cache[0].shape
        return out

    def backward(self, grad_out):
        (x,) = self._saved()
        B, C, T, N = x.shape
        M, P, _ = self._block_idx.shape
        g2 = grad_out.reshape(B, -1, T * N)
        z = self._stack(x)
        L = z.shape[1]
        dw = np.matmul(z.reshape(B, L * C, T * N), g2.transpose(0, 2, 1)).sum(axis=0)
        gz = workspace("grad", z.shape)
        np.matmul(self._stacked_w(), g2, out=gz.reshape(B, L * C, T * N))
        x4 = self._by_person(x)
        gx, step = np.empty(x.shape), workspace("sgc.step", x.shape)
        for i, (k, a) in enumerate(self._blocks):
            self._grads[f"W{k}"] += dw[i * C : (i + 1) * C]
            e, de = self._params[f"E{k}"], self._grads[f"E{k}"].reshape(-1)
            gxi = self._by_person(step if i else gx)
            if a.ndim == 1:  # node scale: E_k's gradient is on the diagonal only
                np.multiply(gz[:, i], (e.diagonal() * a).reshape(M, P), out=gxi)
                gzx = np.multiply(gz[:, i], x4, out=gz[:, i])  # the slot is spent: no temporary
                de[:: N + 1] += np.add.reduce(gzx, axis=(0, 1)).reshape(N) * a
            else:
                gzp = gz[:, i].transpose(0, 2, 1, 3)
                dm = np.matmul(gzp.transpose(0, 1, 3, 2), x4.transpose(0, 2, 1, 3)).sum(axis=0)
                de[self._block_idx] += dm * a
                np.matmul(gzp, e.take(self._block_idx) * a, out=gxi.transpose(0, 2, 1, 3))
            if i:
                gx += step
        for k, hubs, on_hubs, cross in self._hubs:
            h = hubs.size
            xh, mc, zc = self._hub_inputs(x, k, hubs, on_hubs, cross)
            gh = grad_out.take(hubs, axis=3).reshape(B, -1, T * h)
            self._grads[f"W{k}"] += np.matmul(zc, gh.transpose(0, 2, 1)).sum(axis=0)
            gzc = (self._params[f"W{k}"] @ gh).reshape(-1, h)
            self._grads[f"E{k}"].reshape(-1)[on_hubs] += (gzc.T @ xh.reshape(-1, h)) * cross
            gx[..., hubs] = gx.take(hubs, axis=3) + (gzc @ mc).reshape(B, C, T, h)
        return gx


class Linear(Module):
    def __init__(self, in_features, out_features, rng):
        super().__init__()
        self.w = self.param("w", kaiming_uniform(rng, (out_features, in_features), in_features))
        self.b = self.param("b", np.zeros(out_features))

    def forward(self, x, training=False):
        self._cache = x if training else None
        return x @ self.w.T + self.b

    def backward(self, grad_out):
        self._grads["w"] += grad_out.T @ self._saved()
        self._grads["b"] += grad_out.sum(axis=0)
        return grad_out @ self.w


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
        # both sums over x are products with ones: a BLAS pass beats np.add.reduce over
        # the short frame and node axes; persons then sum the small frame sum
        nodes = np.ones(T) @ x.reshape(B * C, T, N)  # (B*C, N) frame sum
        person = np.add.reduce(nodes.reshape(B, C, M, Np), axis=3) / (T * Np)  # (B, C, M)
        frame = (x.reshape(-1, N) @ np.ones(N)).reshape(B, C, T) / N
        z = np.concatenate([person, frame], axis=2)  # (B, C, M+T)
        pre = self.w1 @ z + self.b1[None, :, None]
        mask = self._saved()[-1] if training and self._freeze_kinks else pre > 0.0
        h = pre * mask
        u = self.w2 @ h + self.b2
        with np.errstate(under="ignore"):  # a score that underflows is 0
            score = np.exp(-np.logaddexp(0.0, -u))  # the sigmoid, finite at any u
        person_score, frame_score = score[:, :M], score[:, M:]  # (B, M), (B, T)
        att = frame_score[:, :, None] * person_score[:, None, :]  # (B, T, M)
        out = x * np.repeat(att, Np, axis=2)[:, None]  # the (B, T, N) scale, over channels
        self._cache = (x, z, h, person_score, frame_score, att, mask) if training else None
        return out

    def backward(self, grad_out):
        x, z, h, ps, fs, att, mask = self._saved()
        B, C, T, M, Np = *x.shape[:3], self.M, self.Np
        x5, g5 = x.reshape(B, C, T, M, Np), grad_out.reshape(B, C, T, M, Np)
        gx5 = g5 * att[:, None, :, :, None]
        gatt = (g5 * x5).sum(axis=(1, 4))  # (B, T, M)
        gfs = (gatt * ps[:, None, :]).sum(axis=2)
        gps = (gatt * fs[:, :, None]).sum(axis=1)
        gu = np.concatenate([gps * ps * (1 - ps), gfs * fs * (1 - fs)], axis=1)
        self._grads["w2"] += np.matmul(h, gu[:, :, None]).sum(axis=0)[:, 0]
        self._grads["b2"] += gu.sum(keepdims=True).reshape(1)
        gh = gu[:, None, :] * self.w2[None, :, None]
        gh = gh * mask
        self._grads["w1"] += np.matmul(gh, z.transpose(0, 2, 1)).sum(axis=0)
        self._grads["b1"] += gh.sum(axis=(0, 2))
        gz = self.w1.T @ gh
        gperson, gframe = gz[:, :, :M], gz[:, :, M:]
        gx5 += gperson[:, :, None, :, None] / (T * Np)
        gx5 += gframe[:, :, :, None, None] / (M * Np)
        return gx5.reshape(B, C, T, M * Np)
