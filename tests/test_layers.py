"""Layer-level tests: independent numeric oracles for each nn primitive."""
import numpy as np
import pytest

from panograph import gradcheck
from panograph.errors import ConfigError, ContractError
from panograph.nn import (
    BasicBlock,
    BatchNorm,
    Conv1x1,
    MaxPoolT,
    MultiScaleTCN,
    ReLU,
    SpatialGraphConv,
    STPAttention,
    TemporalConv,
)


def identity_adjacency(n, K=3):
    A = np.zeros((K, n, n))
    A[0] = np.eye(n)
    return A


class TestSpatialGraphConv:
    def test_identity_composition(self):
        rng = np.random.default_rng(0)
        n, C = 4, 3
        layer = SpatialGraphConv(C, C, identity_adjacency(n), rng)
        layer._params["W0"][:] = np.eye(C)
        for k in (1, 2):
            layer._params[f"W{k}"][:] = 0.0
        x = rng.standard_normal((2, C, 5, n))
        assert np.allclose(layer.forward(x), x, atol=1e-12)

    def test_adjacency_permutes_features(self):
        rng = np.random.default_rng(1)
        A = np.zeros((3, 2, 2))
        A[1] = np.array([[0.0, 1.0], [1.0, 0.0]])
        layer = SpatialGraphConv(1, 1, A, rng)
        layer._params["W0"][:] = 0.0
        layer._params["W1"][:] = 1.0
        layer._params["W2"][:] = 0.0
        x = np.array([[[[2.0, 5.0]]]])  # (1, 1, 1, 2)
        out = layer.forward(x)
        assert np.allclose(out, [[[[5.0, 2.0]]]])

    def test_brute_force_triple_product(self):
        """f_out = sum_k (E_k . A_k) f_in W_k by explicit loops, to 1e-12."""
        rng = np.random.default_rng(2)
        n, cin, cout, T, B = 3, 2, 2, 1, 1
        A = rng.uniform(0, 1, size=(3, n, n))
        A = (A + A.transpose(0, 2, 1)) / 2
        layer = SpatialGraphConv(cin, cout, A, rng)
        for k in range(3):
            layer._params[f"E{k}"][:] = rng.standard_normal((n, n))
        x = rng.standard_normal((B, cin, T, n))
        out = layer.forward(x)
        expected = np.zeros((B, cout, T, n))
        for k in range(3):
            mk = layer._params[f"E{k}"] * A[k]
            W = layer._params[f"W{k}"]
            for i in range(n):
                for j in range(n):
                    for co in range(cout):
                        for ci in range(cin):
                            expected[0, co, 0, i] += mk[i, j] * x[0, ci, 0, j] * W[ci, co]
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_node_mismatch(self):
        layer = SpatialGraphConv(2, 2, identity_adjacency(4), np.random.default_rng(0))
        with pytest.raises(ContractError):
            layer.forward(np.zeros((1, 2, 3, 5)))


class TestTemporalConv:
    def naive(self, x, w, b, stride, dilation):
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
        return out + b[None, :, None, None]

    @pytest.mark.parametrize("stride,dilation", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_naive(self, stride, dilation):
        rng = np.random.default_rng(3)
        layer = TemporalConv(3, 4, rng, stride=stride, dilation=dilation)
        x = rng.standard_normal((2, 3, 7, 5))
        out = layer.forward(x)
        expected = self.naive(x, layer.w, layer.b, stride, dilation)
        assert out.shape == expected.shape
        assert np.allclose(out, expected, atol=1e-12)

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

    def test_branch_slices_match_standalone(self):
        rng = np.random.default_rng(9)
        tcn = MultiScaleTCN(3, 8, rng, stride=2)
        x = rng.standard_normal((2, 3, 6, 4))
        out = tcn.forward(x, training=True)
        bc = tcn.branch_channels
        for i, branch in enumerate(tcn.branches):
            expected = branch.forward(x, training=True)
            assert np.allclose(out[:, i * bc : (i + 1) * bc], expected, atol=1e-12)

    def test_stride_halves_frames(self):
        tcn = MultiScaleTCN(2, 4, np.random.default_rng(10), stride=2)
        assert tcn.forward(np.zeros((1, 2, 8, 3))).shape == (1, 4, 4, 3)


class TestAttention:
    def test_straight_line_oracle(self):
        """Step-by-step recomputation for C=4, T=2, M=2, N'=3."""
        rng = np.random.default_rng(11)
        B, C, T, M, Np = 1, 4, 2, 2, 3
        att = STPAttention(C, M, Np, rng)
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

    def test_scores_bounded(self):
        rng = np.random.default_rng(12)
        att = STPAttention(8, 2, 3, rng)
        x = rng.standard_normal((2, 8, 5, 6)) * 10
        out = att.forward(x)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-12)

    def test_saturated_scores_identity(self):
        rng = np.random.default_rng(13)
        att = STPAttention(4, 2, 2, rng)
        att.w1[:] = 0.0
        att.w2[:] = 0.0
        att.b2[:] = 50.0  # sigmoid -> 1
        x = rng.standard_normal((1, 4, 3, 4))
        assert np.allclose(att.forward(x), x, atol=1e-9)

    def test_reduction_divisibility(self):
        with pytest.raises(ConfigError):
            STPAttention(6, 2, 2, np.random.default_rng(0))

    def test_node_factorization(self):
        att = STPAttention(4, 2, 3, np.random.default_rng(0))
        with pytest.raises(ContractError):
            att.forward(np.zeros((1, 4, 2, 5)))


class TestBasicBlock:
    def test_output_shape(self):
        rng = np.random.default_rng(14)
        A = gradcheck.tiny_adjacency(2, 3)
        block = BasicBlock(4, 8, A, 2, 3, rng, stride=2)
        out = block.forward(np.zeros((2, 4, 6, 6)), training=True)
        assert out.shape == (2, 8, 3, 6)

    def test_residual_paths_exist_only_when_needed(self):
        rng = np.random.default_rng(15)
        A = gradcheck.tiny_adjacency(2, 3)
        same = BasicBlock(8, 8, A, 2, 3, rng, stride=1)
        changed = BasicBlock(4, 8, A, 2, 3, rng, stride=2)
        assert same.res1 is None and same.res2 is None
        assert changed.res1 is not None and changed.res2 is not None

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        A = gradcheck.tiny_adjacency(2, 3)
        block = BasicBlock(4, 8, A, 2, 3, rng, stride=2)
        x = rng.standard_normal((2, 4, 6, 6))
        y = block.forward(x, training=True)
        gradcheck.freeze_kinks(block)
        probe = rng.standard_normal(y.shape)
        loss_fn, backward_fn = gradcheck._probe_loss(block, x, probe)
        errs = gradcheck.check_entrywise(block, loss_fn, backward_fn, rng, max_entries=4)
        assert max(errs.values()) < 1e-4


class TestReLU:
    def test_forward_backward(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(relu.forward(x), [[0.0, 2.0], [0.0, 3.0]])
        g = relu.backward(np.ones_like(x))
        assert np.array_equal(g, [[0.0, 1.0], [0.0, 1.0]])


class TestConv1x1:
    def test_stride_subsamples_frames(self):
        rng = np.random.default_rng(17)
        conv = Conv1x1(2, 3, rng, stride=2)
        x = rng.standard_normal((1, 2, 6, 4))
        out = conv.forward(x)
        assert out.shape == (1, 3, 3, 4)
        dense = Conv1x1(2, 3, rng)
        dense.w[:] = conv.w
        dense.b[:] = conv.b
        assert np.allclose(out, dense.forward(x[:, :, ::2, :]), atol=1e-12)

    def test_strided_backward_reinflates(self):
        rng = np.random.default_rng(18)
        conv = Conv1x1(2, 2, rng, stride=2)
        x = rng.standard_normal((1, 2, 5, 3))
        y = conv.forward(x)
        gx = conv.backward(np.ones_like(y))
        assert gx.shape == x.shape
        assert np.all(gx[:, :, 1::2, :] == 0)  # skipped frames get zero gradient
