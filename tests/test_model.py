"""Full-model tests: shapes, determinism, permutation symmetry, parameters."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panograph import gradcheck, graph
from panograph.errors import ConfigError, ContractError, InputError
from panograph.nn import MPGCN, ModelConfig, cross_entropy, softmax
from panograph.nn.model import STREAM_ORDER


def tiny_model(seed=0, num_classes=5):
    cfg = gradcheck.tiny_model_config(num_classes)
    A = gradcheck.tiny_adjacency(cfg.num_persons, cfg.joints_per_person)
    return MPGCN(cfg, A, np.random.default_rng(seed)), cfg, A


def random_streams(rng, cfg, B):
    return [
        rng.standard_normal((B, 2 * cfg.in_channels, cfg.num_frames, cfg.num_nodes))
        for _ in range(4)
    ]


class TestConfig:
    def test_default_channel_plan_consistent(self):
        """Block input widths follow the output-width plan (2C, 4x fused, previous)."""
        cfg = ModelConfig(2, 3, 0, 4, 5, in_channels=2)
        cfg.validate()
        model = MPGCN(cfg, gradcheck.tiny_adjacency(2, 3), np.random.default_rng(0))
        widths = [
            [blk.sgc._params["W0"].shape for blk in stack.blocks]
            for stack in (model.branches[0], model.main)
        ]
        assert widths[0] == [(4, 64), (64, 64), (64, 32)]
        assert widths[1] == [
            (128, 128), (128, 128), (128, 128), (128, 256), (256, 256), (256, 256),
        ]
        assert [blk.stride for blk in model.main.blocks] == [1, 1, 1, 2, 1, 1]

    def test_scaled_plan(self):
        cfg = ModelConfig(3, 5, 1, 16, 8).scaled(4)
        assert cfg.input_branch_channels == [16, 16, 8]
        assert cfg.main_branch_channels == [32, 32, 32, 64, 64, 64]

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(2, 3, 0, 4, 1).validate()


class TestForward:
    def test_logit_shape(self):
        model, cfg, _ = tiny_model()
        rng = np.random.default_rng(1)
        logits = model.forward(random_streams(rng, cfg, 3))
        assert logits.shape == (3, cfg.num_classes)

    def test_zero_input_equal_logits(self):
        model, cfg, _ = tiny_model()
        model.classifier.b[:] = 0.0
        streams = [np.zeros((1, 6, cfg.num_frames, cfg.num_nodes)) for _ in range(4)]
        logits = model.forward(streams)
        assert np.allclose(logits, logits[0, 0], atol=1e-12)

    def test_identical_samples_identical_rows(self):
        model, cfg, _ = tiny_model()
        rng = np.random.default_rng(2)
        one = random_streams(rng, cfg, 1)
        two = [np.repeat(s, 2, axis=0) for s in one]
        logits = model.forward(two)
        assert np.allclose(logits[0], logits[1], atol=1e-12)

    def test_determinism_across_fresh_builds(self):
        a, cfg, _ = tiny_model(seed=7)
        b, _, _ = tiny_model(seed=7)
        rng = np.random.default_rng(3)
        streams = random_streams(rng, cfg, 2)
        assert np.array_equal(a.forward(streams), b.forward(streams))

    def test_wrong_stream_count(self):
        model, cfg, _ = tiny_model()
        rng = np.random.default_rng(4)
        with pytest.raises(ContractError):
            model.forward(random_streams(rng, cfg, 1)[:3])

    def test_wrong_node_count(self):
        model, cfg, _ = tiny_model()
        bad = [np.zeros((1, 6, cfg.num_frames, cfg.num_nodes + 1)) for _ in range(4)]
        with pytest.raises(ContractError):
            model.forward(bad)

    def test_adjacency_shape_mismatch(self):
        cfg = gradcheck.tiny_model_config()
        with pytest.raises(ConfigError):
            MPGCN(cfg, np.zeros((3, 5, 5)), np.random.default_rng(0))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.integers(4, 8), st.integers(2, 6), st.integers(1, 3))
    def test_shape_algebra_property(self, M, V, T, num_classes, B):
        cfg = ModelConfig(M, V, 0, T, num_classes).scaled(8)
        topo = graph.build_topology("chain", M, V)
        A = graph.partition_and_normalize(topo).A_hat
        model = MPGCN(cfg, A, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        logits = model.forward(random_streams(rng, cfg, B))
        assert logits.shape == (B, num_classes)


class TestBackward:
    def test_duplicated_sample_gradient_equals_single(self):
        model, cfg, _ = tiny_model()
        rng = np.random.default_rng(5)
        one = random_streams(rng, cfg, 1)
        label = np.array([2])

        model.zero_grad()
        _, g = cross_entropy(model.forward(one, training=True), label)
        model.backward(g)
        single = {k: v.copy() for k, v in model.named_grads()}

        two = [np.repeat(s, 2, axis=0) for s in one]
        model.zero_grad()
        _, g = cross_entropy(model.forward(two, training=True), np.array([2, 2]))
        model.backward(g)
        for k, v in model.named_grads():
            assert np.allclose(v, single[k], atol=1e-9), k

    def test_stream_gradient_shapes(self):
        model, cfg, _ = tiny_model()
        rng = np.random.default_rng(6)
        streams = random_streams(rng, cfg, 2)
        logits = model.forward(streams, training=True)
        grads = model.backward(np.ones_like(logits))
        assert len(grads) == 4
        for g, s in zip(grads, streams):
            assert g.shape == s.shape

    def test_zero_upstream_gradient(self):
        model, cfg, _ = tiny_model()
        rng = np.random.default_rng(7)
        logits = model.forward(random_streams(rng, cfg, 1), training=True)
        model.zero_grad()
        model.backward(np.zeros_like(logits))
        for name, g in model.named_grads():
            assert np.all(g == 0), name


class TestPermutation:
    def test_person_permutation_invariance(self):
        """Permuting person blocks of input + adjacency leaves logits alone."""
        model, cfg, A = tiny_model()
        rng = np.random.default_rng(8)
        streams = random_streams(rng, cfg, 2)
        base = model.forward(streams)

        Np = cfg.nodes_per_person
        perm = np.concatenate([np.arange(Np) + Np, np.arange(Np)])  # swap the 2 persons
        A2 = A[:, perm][:, :, perm]
        model2 = MPGCN(cfg, A2, np.random.default_rng(0))
        # copy parameters, permuting every edge mask consistently
        params = dict(model.named_parameters())
        for name, p in model2.named_parameters():
            src = params[name]
            if name.split(".")[-1].startswith("E"):
                p[...] = src[perm][:, perm]
            else:
                p[...] = src
        permuted = [s[:, :, :, perm] for s in streams]
        out = model2.forward(permuted)
        assert np.max(np.abs(out - base)) < 1e-9


class TestParameterCounts:
    def test_nba_configuration(self):
        cfg = ModelConfig(12, 17, 2, 72, 9)
        topo = graph.build_topology("coco17", 12, 17, 2)
        A = graph.partition_and_normalize(topo).A_hat
        model = MPGCN(cfg, A, np.random.default_rng(0))
        count = model.num_parameters()
        assert abs(count - 4.4e6) / 4.4e6 < 0.20

    def test_volleyball_configuration(self):
        cfg = ModelConfig(12, 17, 0, 72, 8)
        topo = graph.build_topology("coco17", 12, 17, 0)
        A = graph.partition_and_normalize(topo).A_hat
        model = MPGCN(cfg, A, np.random.default_rng(0))
        count = model.num_parameters()
        assert abs(count - 3.70e6) / 3.70e6 < 0.20


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((1, 8)), np.array([3]))
        assert loss == pytest.approx(np.log(8), abs=1e-9)

    def test_dominant_true_class(self):
        logits = np.zeros((1, 4))
        logits[0, 1] = 500.0
        loss, _ = cross_entropy(logits, np.array([1]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((3, 5))
        labels = np.array([0, 2, 4])
        _, grad = cross_entropy(logits, labels)
        expected = softmax(logits)
        expected[np.arange(3), labels] -= 1
        assert np.allclose(grad, expected / 3, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((2, 6))
        labels = np.array([1, 4])
        _, grad = cross_entropy(logits, labels)
        h = 1e-6
        for i in range(2):
            for j in range(6):
                lp = logits.copy(); lp[i, j] += h
                lm = logits.copy(); lm[i, j] -= h
                fd = (cross_entropy(lp, labels)[0] - cross_entropy(lm, labels)[0]) / (2 * h)
                assert fd == pytest.approx(grad[i, j], abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            cross_entropy(np.zeros((1, 3)), np.array([3]))


class TestGradcheckSuite:
    def test_one_seed_passes(self):
        errors, worst = gradcheck.run_full_suite(0, thorough=False)
        assert worst < 1e-4, errors

    def test_detects_broken_gradient(self):
        """Negative control: a corrupted backward must trip the suite."""
        from panograph.nn.layers import Conv1x1

        orig = Conv1x1.backward

        def corrupted(self, grad_out):
            g = orig(self, grad_out)
            self._grads["w"] *= 1.01
            return g

        Conv1x1.backward = corrupted
        try:
            _, worst = gradcheck.run_full_suite(0, thorough=False)
        finally:
            Conv1x1.backward = orig
        assert worst > 1e-4
