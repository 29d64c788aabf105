"""Layer-level tests: independent numeric oracles for each nn primitive."""
import warnings

import numpy as np
import pytest

from panograph import gradcheck, graph
from panograph.errors import ConfigError, ContractError
from panograph.nn import (
    BasicBlock,
    BatchNorm,
    Conv1x1,
    MaxPoolT,
    ModelConfig,
    MPGCN,
    MultiScaleTCN,
    ReLU,
    SpatialGraphConv,
    STPAttention,
    TemporalConv,
)
from panograph.nn.blocks import _ConvBranch
from panograph.nn.core import _SCRATCH, Module, kaiming_uniform


def identity_adjacency(n, K=3):
    A = np.zeros((K, n, n))
    A[0] = np.eye(n)
    return A


def assert_rel_close(actual, expected, tol=1e-12):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= tol * np.abs(expected).max()


def forward_backward(layer, x, rng):
    """Randomise every parameter, run forward and backward; return out, grad_out, gx, grads.

    The gradient oracles below restate each contraction as an independent
    np.einsum at B=3 and C != O, so a dropped batch sum or a transposed
    operand shows, and compare to 1e-12 relative.
    """
    for _, p in layer.named_parameters():
        p[...] = rng.standard_normal(p.shape)
    layer.zero_grad()
    out = layer.forward(x, training=True)
    g = rng.standard_normal(out.shape)
    gx = layer.backward(g)
    return out, g, gx, {name: grad.copy() for name, grad in layer.named_grads()}


class TestSpatialGraphConv:
    def test_identity_composition(self):
        rng = np.random.default_rng(0)
        n, C = 4, 3
        layer = SpatialGraphConv(C, C, identity_adjacency(n), n, rng)
        layer._params["W0"][:] = np.eye(C)
        for k in (1, 2):
            layer._params[f"W{k}"][:] = 0.0
        x = rng.standard_normal((2, C, 5, n))
        assert np.allclose(layer.forward(x), x, atol=1e-12)

    def test_adjacency_permutes_features(self):
        rng = np.random.default_rng(1)
        A = np.zeros((3, 2, 2))
        A[1] = np.array([[0.0, 1.0], [1.0, 0.0]])
        layer = SpatialGraphConv(1, 1, A, 2, rng)
        layer._params["W0"][:] = 0.0
        layer._params["W1"][:] = 1.0
        layer._params["W2"][:] = 0.0
        x = np.array([[[[2.0, 5.0]]]])  # (1, 1, 1, 2)
        out = layer.forward(x)
        assert np.allclose(out, [[[[5.0, 2.0]]]])

    def test_brute_force_triple_product(self):
        """f_out = sum_k (E_k . A_k) f_in W_k by explicit loops, to 1e-12."""
        rng = np.random.default_rng(2)
        n, cin, cout, T, B = 3, 2, 3, 1, 3
        A = rng.uniform(0, 1, size=(3, n, n))
        A = (A + A.transpose(0, 2, 1)) / 2
        layer = SpatialGraphConv(cin, cout, A, n, rng)
        for k in range(3):
            layer._params[f"E{k}"][:] = rng.standard_normal((n, n))
        x = rng.standard_normal((B, cin, T, n))
        out = layer.forward(x)
        expected = np.zeros((B, cout, T, n))
        for k in range(3):
            mk = layer._params[f"E{k}"] * A[k]
            W = layer._params[f"W{k}"]
            for b in range(B):
                for i in range(n):
                    for j in range(n):
                        for co in range(cout):
                            for ci in range(cin):
                                expected[b, co, 0, i] += mk[i, j] * x[b, ci, 0, j] * W[ci, co]
        assert np.max(np.abs(out - expected)) < 1e-12

    @staticmethod
    def check_against_einsum(A, nodes_per_person, rng):
        """Output, dW_k, dE_k (on the support, exactly 0 off it) and dx against einsum."""
        C, O, T, N = 4, 6, 5, A.shape[1]
        layer = SpatialGraphConv(C, O, A, nodes_per_person, rng)
        x = rng.standard_normal((3, C, T, N))
        out, g, gx, grads = forward_backward(layer, x, rng)
        exp_out = exp_gx = 0.0
        for k in range(3):
            mk = layer._params[f"E{k}"] * A[k]
            W = layer._params[f"W{k}"]
            z = np.einsum("bctj,lj->bctl", x, mk)
            exp_out = exp_out + np.einsum("bctl,co->botl", z, W)
            assert_rel_close(grads[f"W{k}"], np.einsum("bctl,botl->co", z, g))
            gz = np.einsum("co,botl->bctl", W, g)
            on = A[k] != 0
            exp_dE = np.einsum("bctl,bctj->lj", gz, x) * A[k]
            assert_rel_close(grads[f"E{k}"][on], exp_dE[on])
            assert np.all(grads[f"E{k}"][~on] == 0.0)
            exp_gx = exp_gx + np.einsum("bctl,lj->bctj", gz, mk)
        assert_rel_close(out, exp_out)
        assert_rel_close(gx, exp_gx)

    def test_gradients_match_einsum(self):
        """coco17 M=2: partition 1 lies in the person blocks, partition 2 on the hubs."""
        rng = np.random.default_rng(30)
        A = graph.partition_and_normalize(graph.build_topology("coco17", 2, 17, 1)).A_hat
        assert A.shape[1] == 36
        self.check_against_einsum(A, 18, rng)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "per-person"])
    def test_scaled_self_partition_matches_einsum(self, dense):
        """A self partition with a diagonal other than 1, so the node scale must apply it."""
        rng = np.random.default_rng(32)
        A = graph.partition_and_normalize(graph.build_topology("coco17", 2, 17, 1)).A_hat
        A[0] = np.diag(rng.uniform(0.5, 1.5, A.shape[1]))
        self.check_against_einsum(A, 36 if dense else 18, rng)

    @pytest.mark.parametrize("nodes_per_person", [4, 12])
    def test_mixed_partitions_match_einsum(self, nodes_per_person):
        """Partitions 1 and 2 each have entries within and between persons.

        Random E and a within-person entry between two hubs make double
        counting on the hubs show; 12 = N is the single dense block.
        """
        rng = np.random.default_rng(31)
        M, P = 3, 4
        n = M * P
        A = identity_adjacency(n)
        for k in (1, 2):
            R = rng.uniform(0.5, 1.5, (n, n)) * (rng.uniform(size=(n, n)) < 0.4)
            np.fill_diagonal(R, 0.0)
            A[k] = R + R.T if k == 1 else R  # partition 2 is not symmetric
        person = np.arange(n) // P
        within = person[:, None] == person
        for k in (1, 2):
            hub = (A[k] * ~within).any(axis=0) | (A[k] * ~within).any(axis=1)
            assert (A[k] * within)[np.ix_(hub, hub)].any()
        self.check_against_einsum(A, nodes_per_person, rng)

    @staticmethod
    def desk_or_coco(layout):
        """The desk chain graph (M=3, V=5, n=1) or a 2-person coco17 graph with one object."""
        persons, joints = (3, 5) if layout == "chain" else (2, 17)
        topo = graph.build_topology(layout, persons, joints, 1)
        return graph.partition_and_normalize(topo).A_hat, joints + 1

    @pytest.mark.parametrize("layout", ["chain", "coco17"])
    def test_dense_and_per_person_agree(self, layout):
        """The same weights built as one dense block and per person, forward and backward."""
        A, P = self.desk_or_coco(layout)
        N = A.shape[1]
        rng = np.random.default_rng(34)
        dense, blocks = (SpatialGraphConv(4, 6, A, p, rng) for p in (N, P))
        assert not dense._hubs and blocks._hubs
        x = rng.standard_normal((3, 4, 5, N))
        out, g, gx, grads = forward_backward(dense, x, rng)
        weights = dict(dense.named_parameters())
        for name, p in blocks.named_parameters():
            p[...] = weights.pop(name)
        assert not weights
        blocks.zero_grad()
        assert_rel_close(blocks.forward(x, training=True), out)
        assert_rel_close(blocks.backward(g), gx)
        for name, grad in blocks.named_grads():
            assert_rel_close(grad, grads[name])

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "per-person"])
    def test_node_scale_is_the_block_product_bit_for_bit(self, dense):
        """The self partition's slot x * s equals the matmul with its diagonal blocks."""
        A, P = self.desk_or_coco("chain")
        B, C, T, N = 3, 4, 5, A.shape[1]
        rng = np.random.default_rng(35)
        layer = SpatialGraphConv(C, 6, A, N if dense else P, rng)
        for k in range(3):
            layer._params[f"E{k}"][:] = rng.uniform(0.5, 1.5, (N, N))
        x = rng.standard_normal((B, C, T, N))
        out = layer.forward(x, training=True)
        assert [k for k, a in layer._blocks if a.ndim == 1] == [0]
        M = N // layer._block_idx.shape[1]
        xp = x.reshape(B, C * T, M, -1).transpose(0, 2, 1, 3)
        z = np.stack([
            np.matmul(xp, (layer._params[f"E{k}"] * A[k]).take(layer._block_idx).transpose(0, 2, 1))
            .transpose(0, 2, 1, 3) for k, _ in layer._blocks], axis=1)
        assert np.array_equal(layer._stack(x), z)
        if dense:  # no hubs: the output is the one gemm over the stacked slots
            mixed = layer._stacked_w().T @ z.reshape(B, -1, T * N)
            assert np.array_equal(out, mixed.reshape(out.shape))

    def test_training_forward_caches_only_the_input(self):
        A, P = self.desk_or_coco("coco17")
        layer = SpatialGraphConv(4, 6, A, P, np.random.default_rng(37))
        x = np.random.default_rng(38).standard_normal((2, 4, 5, A.shape[1]))
        layer.forward(x, training=True)
        assert layer._cache == (x,) and layer._cache[0] is x

    def test_shared_workspace_between_interleaved_layers(self):
        """Forward a, forward b, backward b, backward a give the results of each layer run
        alone; no returned array shares memory with the workspace or another result."""
        rng = np.random.default_rng(39)
        (A_coco, P), (A_chain, _) = self.desk_or_coco("coco17"), self.desk_or_coco("chain")
        a = SpatialGraphConv(4, 6, A_coco, P, rng)  # per person, with hubs
        b = SpatialGraphConv(8, 4, A_chain, A_chain.shape[1], rng)  # one dense block
        assert a._hubs and not b._hubs
        xa = rng.standard_normal((3, 4, 5, A_coco.shape[1]))
        xb = rng.standard_normal((2, 8, 7, A_chain.shape[1]))
        alone = [forward_backward(layer, x, rng) for layer, x in ((a, xa), (b, xb))]
        a.zero_grad()
        b.zero_grad()
        out_a, out_b = a.forward(xa, training=True), b.forward(xb, training=True)
        gx_b, gx_a = b.backward(alone[1][1]), a.backward(alone[0][1])
        for layer, out, gx, (out0, _, gx0, grads0) in zip((a, b), (out_a, out_b), (gx_a, gx_b), alone):
            assert np.array_equal(out, out0) and np.array_equal(gx, gx0)
            for name, grad in layer.named_grads():
                assert np.array_equal(grad, grads0[name]), name
        results = [out_a, out_b, gx_a, gx_b]
        for i, r in enumerate(results):
            assert not any(np.shares_memory(r, buf) for buf in _SCRATCH.values())
            assert not any(np.shares_memory(r, other) for other in results[i + 1 :])

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "per-person"])
    def test_self_partition_gradient_on_the_diagonal(self, dense):
        A, P = self.desk_or_coco("chain")
        N = A.shape[1]
        rng = np.random.default_rng(36)
        layer = SpatialGraphConv(4, 6, A, N if dense else P, rng)
        *_, grads = forward_backward(layer, rng.standard_normal((3, 4, 5, N)), rng)
        assert np.all(grads["E0"][~np.eye(N, dtype=bool)] == 0.0)
        assert np.all(grads["E0"].diagonal() != 0.0)

    def test_persons_must_divide_nodes(self):
        with pytest.raises(ConfigError, match="36 nodes .* persons of 5 nodes"):
            SpatialGraphConv(2, 2, identity_adjacency(36), 5, np.random.default_rng(0))

    def test_node_mismatch(self):
        layer = SpatialGraphConv(2, 2, identity_adjacency(4), 2, np.random.default_rng(0))
        with pytest.raises(ContractError):
            layer.forward(np.zeros((1, 2, 3, 5)))


STRIDE_DILATION = [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestTemporalConv:
    def naive(self, x, w, stride, dilation):
        B, C, T, N = x.shape
        O, _, K = w.shape
        pad = dilation * (K - 1) // 2
        T_out = (T - 1) // stride + 1
        out = np.zeros((B, O, T_out, N))
        for to in range(T_out):
            for k in range(K):
                t = stride * to + dilation * k - pad
                if 0 <= t < T:
                    out[:, :, to, :] += np.einsum("oc,bcn->bon", w[:, :, k], x[:, :, t, :])
        return out

    @pytest.mark.parametrize("stride,dilation", STRIDE_DILATION)
    def test_matches_naive(self, stride, dilation):
        self.check_restatements(7, stride, dilation)

    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("stride,dilation", STRIDE_DILATION)
    def test_short_clips_match_naive(self, T, stride, dilation):
        """At T <= 2 a tap can read no in-clip frame."""
        self.check_restatements(T, stride, dilation)

    def check_restatements(self, T, stride, dilation):
        rng = np.random.default_rng(3)
        layer = TemporalConv(3, 4, rng, stride=stride, dilation=dilation)
        x = rng.standard_normal((3, 3, T, 5))
        out = layer.forward(x, training=True)
        expected = self.naive(x, layer.w, stride, dilation)
        assert out.shape == expected.shape
        assert np.allclose(out, expected, atol=1e-12)
        # bit for bit: the same gemm over windows gathered from the zero-padded input,
        # and the input gradient scattered back into it in tap order 0, 1, 2
        T_out = out.shape[2]
        xp = np.pad(x, ((0, 0), (0, 0), (dilation, dilation), (0, 0)))
        taps = [slice(dilation * k, dilation * k + stride * (T_out - 1) + 1, stride) for k in range(3)]
        xw2 = np.stack([xp[:, :, tap] for tap in taps], axis=2).reshape(3, 9, T_out * 5)
        w2 = layer.w.reshape(4, 9)
        assert np.array_equal(layer._cache[0], xw2)
        assert np.array_equal(out, (w2 @ xw2).reshape(out.shape))
        g = rng.standard_normal(out.shape)
        gxw = (w2.T @ g.reshape(3, 4, T_out * 5)).reshape(3, 3, 3, T_out, 5)
        gxp = np.zeros_like(xp)
        for k, tap in enumerate(taps):
            gxp[:, :, tap] += gxw[:, :, k]
        assert np.array_equal(layer.backward(g), gxp[:, :, dilation : dilation + T])
        assert np.array_equal(layer.forward(x), out) and layer._cache is None  # eval: same gemm

    def test_gradients_match_einsum(self):
        rng = np.random.default_rng(32)
        s, d, T = 2, 2, 9
        layer = TemporalConv(4, 6, rng, stride=s, dilation=d)
        x = rng.standard_normal((3, 4, T, 5))
        _, g, gx, grads = forward_backward(layer, x, rng)
        T_out = (T - 1) // s + 1
        xp = np.pad(x, ((0, 0), (0, 0), (d, d), (0, 0)))  # pad = d * (3 - 1) // 2
        taps = [slice(d * k, d * k + s * (T_out - 1) + 1, s) for k in range(3)]
        xw = np.stack([xp[:, :, tap] for tap in taps], axis=2)  # (B, C, 3, T_out, N)
        gxp = np.zeros_like(xp)
        for k, tap in enumerate(taps):
            gxp[:, :, tap] += np.einsum("oc,botn->bctn", layer.w[:, :, k], g)
        assert set(grads) == {"w"}
        assert_rel_close(grads["w"], np.einsum("botn,bcktn->ock", g, xw))
        assert_rel_close(gx, gxp[:, :, d : d + T])

    def test_output_length(self):
        layer = TemporalConv(2, 2, np.random.default_rng(4), stride=2)
        assert layer.forward(np.zeros((1, 2, 8, 3))).shape[2] == 4
        assert layer.forward(np.zeros((1, 2, 7, 3))).shape[2] == 4


class TestMaxPool:
    def test_matches_naive(self):
        rng = np.random.default_rng(5)
        for stride in (1, 2):
            layer = MaxPoolT(stride=stride)
            x = rng.standard_normal((2, 3, 6, 4))
            out = layer.forward(x)
            T_out = (6 - 1) // stride + 1
            expected = np.empty((2, 3, T_out, 4))
            for to in range(T_out):
                window = [stride * to + k - 1 for k in range(3)]
                vals = [x[:, :, t, :] for t in window if 0 <= t < 6]
                expected[:, :, to, :] = np.max(np.stack(vals), axis=0)
            assert np.allclose(out, expected)

    def test_constant_input(self):
        layer = MaxPoolT(stride=1)
        x = np.full((1, 2, 5, 3), 7.0)
        assert np.all(layer.forward(x) == 7.0)

    @staticmethod
    def gather(x, stride):
        """(B, C, T_out, 3, N) windows of the -inf-padded input."""
        B, C, T, N = x.shape
        xp = np.full((B, C, T + 2, N), -np.inf)
        xp[:, :, 1 : T + 1] = x
        T_out = (T - 1) // stride + 1
        return xp[:, :, stride * np.arange(T_out)[:, None] + np.arange(3)[None, :]]

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_gather_restatement(self, stride):
        self.check_restatement(7, stride)

    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_short_clips_match_gather_restatement(self, stride, T):
        """At T <= 2 a tap can read no in-clip frame; at stride 3 the taps skip frames."""
        self.check_restatement(T, stride)

    def check_restatement(self, T, stride):
        rng = np.random.default_rng(15)
        B, C, N = 3, 4, 5
        x = rng.integers(-2, 3, (B, C, T, N)).astype(float)  # many tied neighbours
        layer = MaxPoolT(stride=stride)
        out = layer.forward(x, training=True)
        windows = self.gather(x, stride)
        argmax = windows.argmax(axis=3)
        assert np.array_equal(out, np.take_along_axis(windows, argmax[:, :, :, None], axis=3)[:, :, :, 0])
        assert np.array_equal(layer._cache[0], argmax)
        g = rng.standard_normal(out.shape)
        gxp = np.zeros((B, C, T + 2, N))
        t_i = stride * np.arange(out.shape[2])[None, None, :, None] + argmax
        np.add.at(gxp, (np.arange(B)[:, None, None, None], np.arange(C)[None, :, None, None],
                        t_i, np.arange(N)[None, None, None, :]), g)
        assert np.array_equal(layer.backward(g), gxp[:, :, 1 : T + 1])
        assert np.array_equal(MaxPoolT(stride=stride).forward(x), out)  # eval: no argmax
        layer._freeze_kinks = True
        x2 = x + rng.standard_normal(x.shape)
        frozen = np.take_along_axis(self.gather(x2, stride), argmax[:, :, :, None], axis=3)[:, :, :, 0]
        assert np.array_equal(layer.forward(x2, training=True), frozen)
        assert np.array_equal(layer._cache[0], argmax)


class TestBatchNorm:
    def test_training_normalizes(self):
        rng = np.random.default_rng(6)
        bn = BatchNorm(4)
        x = rng.standard_normal((3, 4, 5, 6)) * 3 + 2
        y = bn.forward(x, training=True)
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(y.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm(2)
        x = rng.standard_normal((4, 2, 3, 3)) + 5.0
        bn.forward(x, training=True)
        batch_mean = x.mean(axis=(0, 2, 3))
        assert np.allclose(bn.running_mean, 0.1 * batch_mean, atol=1e-12)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(2)
        bn.running_mean[:] = (1.0, -1.0)
        bn.running_var[:] = (4.0, 9.0)
        x = np.ones((1, 2, 2, 2))
        y = bn.forward(x, training=False)
        assert np.allclose(y[:, 0], 0.0, atol=1e-5)
        assert np.allclose(y[:, 1], 2.0 / 3.0, atol=1e-3)

    @pytest.mark.parametrize("mean", [1e4, 1e6, 1e8])
    def test_variance_centred_at_large_mean(self, mean):
        rng = np.random.default_rng(16)
        bn = BatchNorm(4)
        bn.running_var[:] = 0.0
        x = rng.standard_normal((3, 4, 5, 6)) * 3.0 + mean
        y = bn.forward(x, training=True)
        batch_var = bn.running_var / (1 - bn.momentum)
        assert_rel_close(batch_var, x.var(axis=(0, 2, 3)), tol=1e-9)
        assert np.allclose(y.std(axis=(0, 2, 3)), 1.0, atol=1e-6)

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_matches_textbook(self, training):
        """Ioffe & Szegedy (arXiv 1502.03167), Algorithm 1 and its chain rule.

        Eval has no backward: its forward overwrites x with the running-statistics
        affine and keeps nothing, so a backward after it raises ContractError.
        """
        rng = np.random.default_rng(17)
        bn = BatchNorm(4)
        bn.gamma[:] = rng.standard_normal(4)
        bn.beta[:] = rng.standard_normal(4)
        bn.running_mean[:] = rng.standard_normal(4)
        bn.running_var[:] = rng.uniform(0.5, 2.0, 4)
        x = rng.standard_normal((3, 4, 5, 6)) * 2.0 + 1.5
        x0 = x.copy()
        g = rng.standard_normal(x.shape)
        axes, shape = (0, 2, 3), (1, 4, 1, 1)
        if not training:
            y = bn.forward(x, training=False)
            assert y is x
            mu, var = bn.running_mean.reshape(shape), bn.running_var.reshape(shape)
            inv = 1.0 / np.sqrt(var + bn.eps)
            assert_rel_close(y, (x0 - mu) * inv * bn.gamma.reshape(shape) + bn.beta.reshape(shape))
            with pytest.raises(ContractError, match="BatchNorm.backward needs a training forward"):
                bn.backward(g)
            return
        bn.forward(x, training=True)
        bn.forward(x, training=True)
        assert np.array_equal(x, x0)
        bn.zero_grad()
        gx = bn.backward(g)
        m = x.size // 4
        mu = x.mean(axis=axes).reshape(shape)
        var = x.var(axis=axes).reshape(shape)
        inv = 1.0 / np.sqrt(var + bn.eps)
        xhat = (x - mu) * inv
        dxhat = g * bn.gamma.reshape(shape)
        dvar = (dxhat * (x - mu)).sum(axis=axes, keepdims=True) * -0.5 * inv**3
        dmu = -(dxhat * inv).sum(axis=axes, keepdims=True) \
            - dvar * 2.0 * (x - mu).sum(axis=axes, keepdims=True) / m
        expected = dxhat * inv + dvar * 2.0 * (x - mu) / m + dmu / m
        assert_rel_close(gx, expected)
        assert_rel_close(bn._grads["gamma"], (g * xhat).sum(axis=axes))
        assert_rel_close(bn._grads["beta"], g.sum(axis=axes))

    def test_gamma_beta_affine(self):
        rng = np.random.default_rng(8)
        bn = BatchNorm(3)
        bn.gamma[:] = 2.0
        bn.beta[:] = -1.0
        x = rng.standard_normal((2, 3, 4, 4))
        y = bn.forward(x, training=True)
        assert np.allclose(y.mean(axis=(0, 2, 3)), -1.0, atol=1e-10)


class TestMultiScaleTCN:
    def test_channel_divisibility(self):
        with pytest.raises(ConfigError):
            MultiScaleTCN(4, 6, np.random.default_rng(0))

    @staticmethod
    def standalone_bottlenecks(tcn):
        """One Conv1x1 per branch, holding that branch's row block of ``tcn.w``."""
        bc, (_, C) = tcn.branch_channels, tcn.w.shape
        convs = [Conv1x1(C, bc, np.random.default_rng(0)) for _ in range(4)]
        for i, conv in enumerate(convs):
            conv.w[...] = tcn.w[i * bc : (i + 1) * bc]
        return convs

    def test_branch_slices_match_standalone(self):
        """Each quarter is its branch's own Conv1x1 -> BN -> ReLU -> tconv/pool."""
        rng = np.random.default_rng(9)
        tcn = MultiScaleTCN(3, 8, rng, stride=2)
        x = rng.standard_normal((2, 3, 6, 4))
        out = tcn.forward(x, training=True)
        bc = tcn.branch_channels
        *convs, plain = self.standalone_bottlenecks(tcn)
        expected = [b.forward(conv.forward(x), training=True) for b, conv in zip(tcn.branches, convs)]
        expected.append(plain.forward(x[:, :, ::2]))
        for i, e in enumerate(expected):
            assert np.allclose(out[:, i * bc : (i + 1) * bc], e, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_stacked_bottleneck_gradients_match_per_branch_sum(self, stride):
        """gx and every row block of dW against one Conv1x1 backward per branch, summed."""
        rng = np.random.default_rng(34)
        tcn = MultiScaleTCN(4, 12, rng, stride=stride)
        x = rng.standard_normal((3, 4, 7, 5))
        g = rng.standard_normal(tcn.forward(x, training=True).shape)
        tcn.zero_grad()
        gx = tcn.backward(g)
        dw = tcn._grads["w"].copy()
        bc = tcn.branch_channels
        *convs, plain = self.standalone_bottlenecks(tcn)
        plain.forward(x[:, :, ::stride], training=True)
        expected = np.zeros_like(x)
        expected[:, :, ::stride] = plain.backward(g[:, 3 * bc :])
        for i, (b, conv) in enumerate(zip(tcn.branches, convs)):
            b.forward(conv.forward(x, training=True), training=True)
            expected += conv.backward(b.backward(g[:, i * bc : (i + 1) * bc]))
        assert_rel_close(gx, expected)
        assert_rel_close(dw, np.concatenate([conv._grads["w"] for conv in convs + [plain]]))

    def test_weights_follow_the_draw_order(self):
        """Row blocks and tconv weights come off the rng as b0 rows, b0.tconv, b1 rows,
        b1.tconv, b2 rows, b3 rows, and nothing else is drawn."""
        C, bc = 5, 3
        built, drawn = np.random.default_rng(41), np.random.default_rng(41)
        tcn = MultiScaleTCN(C, 4 * bc, built, stride=2)

        def rows():
            return kaiming_uniform(drawn, (bc, C), C)

        def tconv():
            return kaiming_uniform(drawn, (bc, bc, 3), 3 * bc)

        expected = [rows(), tconv(), rows(), tconv(), rows(), rows()]
        b0, b1, _ = tcn.branches
        got = [tcn.w[:bc], b0.tconv.w, tcn.w[bc : 2 * bc], b1.tconv.w, tcn.w[2 * bc : 3 * bc],
               tcn.w[3 * bc :]]
        assert all(np.array_equal(a, e) for a, e in zip(got, expected))
        assert built.random() == drawn.random()

    @pytest.mark.parametrize("stride,dilation", [(1, 1), (2, 2)])
    def test_conv_branch_matches_its_layers_standalone(self, stride, dilation):
        """A conv branch that drops its im2col and rebuilds it in backward gives, bit for
        bit, the output and gradients of its BN, ReLU and TemporalConv run standalone."""
        rng = np.random.default_rng(44)
        branch = _ConvBranch(3, rng, stride, dilation)
        layers = BatchNorm(3), ReLU(), TemporalConv(3, 3, rng, stride=stride, dilation=dilation)
        for p in (layers[0].gamma, layers[0].beta, layers[2].w):
            p[...] = rng.standard_normal(p.shape)
        branch.bn.gamma[...], branch.bn.beta[...] = layers[0].gamma, layers[0].beta
        branch.tconv.w[...] = layers[2].w
        y = rng.standard_normal((2, 3, 7, 4))
        out = branch.forward(y, training=True)
        expected = y
        for layer in layers:
            expected = layer.forward(expected, training=True)
        assert np.array_equal(out, expected)
        g = rng.standard_normal(out.shape)
        gy = branch.backward(g)
        for layer in reversed(layers):
            g = layer.backward(g)
        assert np.array_equal(gy, g)
        grads = dict(branch.named_grads())
        assert grads.keys() == {"bn.gamma", "bn.beta", "tconv.w"}
        assert np.array_equal(grads["bn.gamma"], layers[0]._grads["gamma"])
        assert np.array_equal(grads["bn.beta"], layers[0]._grads["beta"])
        assert np.array_equal(grads["tconv.w"], layers[2]._grads["w"])

    def test_stride_halves_frames(self):
        tcn = MultiScaleTCN(2, 4, np.random.default_rng(10), stride=2)
        assert tcn.forward(np.zeros((1, 2, 8, 3))).shape == (1, 4, 4, 3)


class TestAttention:
    def test_straight_line_oracle(self):
        """Step-by-step recomputation for B=3, C=4, T=2, M=2, N'=3."""
        rng = np.random.default_rng(11)
        B, C, T, M, Np = 3, 4, 2, 2, 3
        att = STPAttention(C, Np, rng)
        x = rng.standard_normal((B, C, T, M * Np))
        out = att.forward(x)

        x5 = x.reshape(B, C, T, M, Np)
        person = x5.mean(axis=(2, 4))
        frame = x.mean(axis=3)
        z = np.concatenate([person, frame], axis=2)
        h = np.maximum(np.einsum("rc,bcl->brl", att.w1, z) + att.b1[None, :, None], 0.0)
        u = np.einsum("r,brl->bl", att.w2, h) + att.b2
        sig = 1 / (1 + np.exp(-u))
        ps, fs = sig[:, :M], sig[:, M:]
        expected = x5 * (fs[:, None, :, None, None] * ps[:, None, None, :, None])
        assert np.allclose(out, expected.reshape(B, C, T, M * Np), atol=1e-12)

    def test_gradients_match_einsum(self):
        rng = np.random.default_rng(33)
        B, C, T, M, Np = 3, 8, 5, 2, 18
        att = STPAttention(C, Np, rng)
        x = rng.standard_normal((B, C, T, M * Np))
        _, g, gx, grads = forward_backward(att, x, rng)
        x5 = x.reshape(B, C, T, M, Np)
        z = np.concatenate([x5.mean(axis=(2, 4)), x.mean(axis=3)], axis=2)
        pre = np.einsum("rc,bcl->brl", att.w1, z) + att.b1[None, :, None]
        assert (pre > 0).any() and (pre < 0).any()
        h = np.maximum(pre, 0.0)
        sig = 1 / (1 + np.exp(-(np.einsum("r,brl->bl", att.w2, h) + att.b2)))
        ps, fs = sig[:, :M], sig[:, M:]
        a = np.einsum("bt,bm->btm", fs, ps)
        g5 = g.reshape(x5.shape)
        gatt = np.einsum("bctmp,bctmp->btm", g5, x5)
        gu = np.concatenate([np.einsum("btm,bt->bm", gatt, fs) * ps * (1 - ps),
                             np.einsum("btm,bm->bt", gatt, ps) * fs * (1 - fs)], axis=1)
        gh = np.einsum("bl,r->brl", gu, att.w2) * (pre > 0)
        gz = np.einsum("rc,brl->bcl", att.w1, gh)
        exp_gx = (g5 * a[:, None, :, :, None] + gz[:, :, None, :M, None] / (T * Np)
                  + gz[:, :, M:, None, None] / (M * Np))
        assert_rel_close(grads["w2"], np.einsum("bl,brl->r", gu, h))
        assert_rel_close(grads["b2"], gu.sum(keepdims=True).reshape(1))
        assert_rel_close(grads["w1"], np.einsum("brl,bcl->rc", gh, z))
        assert_rel_close(grads["b1"], gh.sum(axis=(0, 2)))
        assert_rel_close(gx, exp_gx.reshape(x.shape))

    def test_scores_bounded(self):
        rng = np.random.default_rng(12)
        att = STPAttention(8, 3, rng)
        x = rng.standard_normal((2, 8, 5, 6)) * 10
        out = att.forward(x)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-12)

    @pytest.mark.parametrize("u", [800.0, -800.0])
    def test_scores_at_large_logits(self, u):
        """|u| = 800 overflows exp(|u|) and underflows exp(-|u|): no warning, scores in [0, 1]."""
        rng = np.random.default_rng(14)
        att = STPAttention(4, 2, rng)
        att.w2[:] = 0.0
        att.b2[:] = u
        x = rng.standard_normal((2, 4, 3, 4))
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            out = att.forward(x, training=True)
        scores = np.concatenate([att._cache[3], att._cache[4]], axis=1)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        assert np.array_equal(out, x if u > 0 else np.zeros_like(x))

    def test_saturated_scores_identity(self):
        rng = np.random.default_rng(13)
        att = STPAttention(4, 2, rng)
        att.w1[:] = 0.0
        att.w2[:] = 0.0
        att.b2[:] = 50.0  # sigmoid -> 1
        x = rng.standard_normal((1, 4, 3, 4))
        assert np.allclose(att.forward(x), x, atol=1e-9)

    def test_reduction_divisibility(self):
        with pytest.raises(ConfigError):
            STPAttention(6, 2, np.random.default_rng(0))

    def test_node_factorization(self):
        att = STPAttention(4, 3, np.random.default_rng(0))
        with pytest.raises(ContractError, match="node dim 5 is not a multiple of 3 nodes per person"):
            att.forward(np.zeros((1, 4, 2, 5)))


class TestBasicBlock:
    def test_output_shape(self):
        rng = np.random.default_rng(14)
        A = gradcheck.tiny_adjacency(2, 3)
        block = BasicBlock(4, 8, A, 3, rng, stride=2)
        out = block.forward(np.zeros((2, 4, 6, 6)), training=True)
        assert out.shape == (2, 8, 3, 6)

    @pytest.mark.parametrize("persons,dense", [(5, True), (6, False)])
    def test_sgc_dense_up_to_32_nodes(self, persons, dense):
        """Chain persons of 5 joints and an object: 30 nodes run dense, 36 per person."""
        A = graph.partition_and_normalize(graph.build_topology("chain", persons, 5, 1)).A_hat
        block = BasicBlock(4, 4, A, 6, np.random.default_rng(17))
        assert block.sgc._block_idx.shape[0] == (1 if dense else persons)
        assert bool(block.sgc._hubs) != dense

    def test_residual_paths_exist_only_when_needed(self):
        rng = np.random.default_rng(15)
        A = gradcheck.tiny_adjacency(2, 3)
        same = BasicBlock(8, 8, A, 3, rng, stride=1)
        changed = BasicBlock(4, 8, A, 3, rng, stride=2)
        assert same.res1 is None and same.res2 is None
        assert changed.res1 is not None and changed.res2 is not None

    def test_convolutions_leave_every_shift_to_batchnorm(self):
        """Each conv output reaches a BN (directly or beside one), so only BN beta shifts."""
        rng = np.random.default_rng(19)
        block = BasicBlock(4, 8, gradcheck.tiny_adjacency(2, 3), 3, rng, stride=2)
        assert [name for name, _ in block.named_parameters()] == [
            "sgc.W0", "sgc.E0", "sgc.W1", "sgc.E1", "sgc.W2", "sgc.E2",
            "bn1.gamma", "bn1.beta",
            "res1.w",
            "tcn.w",
            *[f"tcn.b{i}.{n}" for i in (0, 1) for n in ("bn.gamma", "bn.beta", "tconv.w")],
            "tcn.b2.bn.gamma", "tcn.b2.bn.beta",
            "bn2.gamma", "bn2.beta",
            "res2.w",
            "att.w1", "att.b1", "att.w2", "att.b2",
        ]
        cfg = ModelConfig(3, 5, 1, 16, 8).scaled(4)
        A = graph.partition_and_normalize(graph.build_topology("chain", 3, 5, 1)).A_hat
        convs = []

        def walk(module):
            if isinstance(module, (Conv1x1, TemporalConv)):
                convs.append(module)
            for _, child in module._children:
                walk(child)

        walk(MPGCN(cfg, A, rng))
        assert len(convs) == 46
        assert all(list(conv._params) == ["w"] for conv in convs)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        A = gradcheck.tiny_adjacency(2, 3)
        block = BasicBlock(4, 8, A, 3, rng, stride=2)
        x = rng.standard_normal((2, 4, 6, 6))
        errs = gradcheck.check_layer(block, x, rng, max_entries=4)
        assert max(errs.values()) < 1e-4

    @staticmethod
    def strided_block(seed):
        """A stride-2 block with both residual projections, trained forward on random x."""
        rng = np.random.default_rng(seed)
        block = BasicBlock(4, 8, gradcheck.tiny_adjacency(2, 3), 3, rng, stride=2)
        x = rng.standard_normal((2, 4, 6, 6))
        return block, x, block.forward(x, training=True), rng

    @staticmethod
    def conv_branches(block):
        return [b for b in block.tcn.branches if hasattr(b, "tconv")]

    @classmethod
    def assert_holds_no_y1_or_y2(cls, block):
        """tcn, att, res2 and the conv branches' tconv hold no input (``_cache[0]`` is None,
        the tconv's whole cache is its im2col), while every freeze state stays."""
        assert block.tcn._cache == (None,) and block.res2._cache == (None,)
        assert len(cls.conv_branches(block)) == 2
        assert all(b.tconv._cache is None for b in cls.conv_branches(block))
        assert block.att._cache[0] is None and block.att._cache[-1].dtype == bool
        assert block.relu1._cache.dtype == bool and block.relu2._cache.dtype == bool
        assert all(b.relu._cache.dtype == bool for b in block.tcn.branches)
        assert block.tcn.branches[2].pool._cache[0].dtype == np.int8

    def test_training_forward_keeps_no_y1_or_y2(self):
        block, x, *_ = self.strided_block(40)
        assert block._cache is x
        self.assert_holds_no_y1_or_y2(block)

    def test_backward_drops_y1_and_y2_again(self):
        block, _, out, rng = self.strided_block(41)
        block.backward(rng.standard_normal(out.shape))
        self.assert_holds_no_y1_or_y2(block)

    def test_tconv_backward_sees_its_im2col(self, monkeypatch):
        """While a conv branch's tconv.backward runs, and at its return, the tconv holds
        its rebuilt (B, C * 3, T_out * N) im2col in _cache[0], as a span wrapper reads it."""
        block, _, out, rng = self.strided_block(45)
        seen = []
        backward = TemporalConv.backward

        def wrapped(layer, grad_out):
            gx = backward(layer, grad_out)
            seen.append(layer._cache[0].shape)
            return gx

        monkeypatch.setattr(TemporalConv, "backward", wrapped)
        block.backward(rng.standard_normal(out.shape))
        bc = block.tcn.branch_channels
        assert seen == [(2, bc * 3, 3 * 6)] * 2  # B=2, T_out=3 at stride 2, N=6

    def test_only_module_and_temporal_conv_define_hold_input(self):
        """A dropped input is handed back one way, Module.hold_input's, except the
        TemporalConv that rebuilds its im2col from it."""
        def owners(cls):
            yield from ([cls] if "hold_input" in vars(cls) else [])
            for sub in cls.__subclasses__():
                yield from owners(sub)

        assert sorted(c.__name__ for c in owners(Module)) == ["Module", "TemporalConv"]

    def test_frozen_forward_after_backward(self):
        """forward -> backward -> freeze_kinks -> frozen forward, the desk FD path."""
        block, x, out, rng = self.strided_block(42)
        block.backward(rng.standard_normal(out.shape))
        gradcheck.freeze_kinks(block)
        try:
            assert np.array_equal(block.forward(x, training=True), out)
        finally:
            gradcheck.freeze_kinks(block, False)

    def test_two_backwards_give_equal_gradients(self):
        block, _, out, rng = self.strided_block(43)
        g = rng.standard_normal(out.shape)
        runs = []
        for _ in range(2):
            block.zero_grad()
            gx = block.backward(g)
            runs.append((gx, {k: v.copy() for k, v in block.named_grads()}))
        (gx0, g0), (gx1, g1) = runs
        assert np.array_equal(gx0, gx1)
        assert all(np.array_equal(g0[k], g1[k]) for k in g0)


class TestReLU:
    def test_forward_backward(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(relu.forward(x, training=True), [[0.0, 2.0], [0.0, 3.0]])
        g = relu.backward(np.ones_like(x))
        assert np.array_equal(g, [[0.0, 1.0], [0.0, 1.0]])

    def test_eval_rectifies_in_place(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0], [0.0, 3.0]])
        relu.forward(x.copy(), training=True)
        assert relu.forward(x) is x
        assert np.array_equal(x, [[0.0, 2.0], [0.0, 3.0]])
        with pytest.raises(ContractError, match="ReLU.backward needs a training forward"):
            relu.backward(np.ones_like(x))


class TestConv1x1:
    def test_matches_einsum(self):
        rng = np.random.default_rng(31)
        layer = Conv1x1(4, 6, rng)
        x = rng.standard_normal((3, 4, 7, 5))
        out, g, gx, grads = forward_backward(layer, x, rng)
        assert_rel_close(out, np.einsum("oc,bctn->botn", layer.w, x))
        assert set(grads) == {"w"}
        assert_rel_close(grads["w"], np.einsum("botn,bctn->oc", g, x))
        assert_rel_close(gx, np.einsum("oc,botn->bctn", layer.w, g))
