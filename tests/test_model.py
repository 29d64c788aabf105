"""Full-model tests: shapes, determinism, permutation symmetry, parameters."""
import collections
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panograph import gradcheck, graph
from panograph.errors import ConfigError, ContractError, InputError
from panograph.nn import MPGCN, ModelConfig, cross_entropy, softmax
from panograph.nn.core import Module
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

    @pytest.mark.parametrize("change, message", [
        ({"num_persons": 0}, "num_persons must be >= 1, got 0"),
        ({"num_frames": -1}, "num_frames must be >= 1, got -1"),
        ({"object_keypoints": -1}, "object_keypoints must be >= 0, got -1"),
        ({"channel_divisor": 0}, "channel_divisor must be >= 1, got 0"),
        ({"channel_divisor": -4}, "channel_divisor must be >= 1, got -4"),
        ({"channel_divisor": 3}, "block output 21 not a multiple of 4"),
    ])
    def test_sizes_must_be_positive(self, change, message):
        """A size no model can be built with (a checkpoint's config may carry one)."""
        cfg = dataclasses.replace(ModelConfig(2, 3, 0, 4, 5), **change)
        with pytest.raises(ConfigError, match=re.escape(message)):
            cfg.validate()


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


BACKWARD_STATE = ("_x", "_z", "_hub_x", "_cache", "_mask", "_argmax", "_relu_mask")


def all_modules(module):
    yield module
    for _, child in module._children:
        yield from all_modules(child)


def cached_nbytes(module):
    """Bytes of backward cache per layer class, under ``module``.

    Every distinct base array in a ``_cache`` (nested in tuples too) counts
    once, for the first module that holds it, children before their parent.
    The total is the sum of the values.
    """
    seen, per_class = set(), collections.Counter()

    def bases(value):
        if isinstance(value, tuple):
            for v in value:
                yield from bases(v)
        elif isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            yield value

    def walk(m):
        for _, child in m._children:
            walk(child)
        for a in bases(m._cache):
            if id(a) not in seen:
                seen.add(id(a))
                per_class[type(m).__name__] += a.nbytes

    walk(module)
    return per_class


class TestForwardOnlyEval:
    def test_eval_keeps_no_backward_state(self):
        model, cfg, _ = tiny_model()
        streams = random_streams(np.random.default_rng(20), cfg, 2)
        model.forward(streams, training=True)
        assert sum(m._cache is not None for m in all_modules(model)) > 100
        model.forward(streams)
        for m in all_modules(model):
            for attr in BACKWARD_STATE:
                assert getattr(m, attr, None) is None, (type(m).__name__, attr)
        with pytest.raises(ContractError, match="MPGCN.backward needs a training forward"):
            model.backward(np.ones((2, cfg.num_classes)))

    def test_every_parameter_owner_runs(self):
        """No module owns a parameter its forward leaves unused: after one training
        step of a desk model, every parameter tensor has a non-zero gradient."""
        cfg = ModelConfig(3, 5, 1, 16, 8).scaled(4)
        A = graph.partition_and_normalize(graph.build_topology("chain", 3, 5, 1)).A_hat
        model = MPGCN(cfg, A, np.random.default_rng(0))
        logits = model.forward(random_streams(np.random.default_rng(23), cfg, 2), training=True)
        model.zero_grad()
        model.backward(cross_entropy(logits, np.array([1, 6]))[1])
        assert sum(1 for m in all_modules(model) if m._params) > 100
        assert [name for name, g in model.named_grads() if not g.any()] == []

    def test_desk_training_cache_budget(self):
        """y1, y2 and the conv branches' im2col live only while their block runs: one
        training forward at the desk shape keeps at least 20 % less than the 76322432
        bytes that caching the im2col took (103454336 with y1 and y2 as well)."""
        cfg = ModelConfig(3, 5, 1, 16, 8).scaled(4)
        A = graph.partition_and_normalize(graph.build_topology("chain", 3, 5, 1)).A_hat
        model = MPGCN(cfg, A, np.random.default_rng(0))
        model.forward(random_streams(np.random.default_rng(24), cfg, 16), training=True)
        cached = cached_nbytes(model)
        assert sum(cached.values()) <= 0.8 * 76322432
        assert cached["MultiScaleTCN"] == 0
        assert cached["TemporalConv"] == 0

    def test_eval_between_training_steps_changes_no_gradient(self):
        """train -> eval -> train -> backward gives the gradients of train -> backward."""
        grads = []
        for with_eval in (False, True):
            model, cfg, _ = tiny_model(seed=3)
            rng = np.random.default_rng(21)
            streams, labels = random_streams(rng, cfg, 2), np.array([1, 4])
            model.forward(streams, training=True)
            if with_eval:
                model.forward(streams)
            model.zero_grad()
            _, g = cross_entropy(model.forward(streams, training=True), labels)
            gx = model.backward(g)
            grads.append((gx, dict(model.named_grads())))
        (gx0, g0), (gx1, g1) = grads
        assert all(np.array_equal(a, b) for a, b in zip(gx0, gx1))
        assert all(np.array_equal(g0[k], g1[k]) for k in g0)

    def test_eval_leaves_streams_unchanged(self):
        """Eval BN and ReLU work in place, but never on the caller's arrays."""
        model, cfg, _ = tiny_model()
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, cfg.num_frames, cfg.num_nodes, 2 * cfg.in_channels))
        streams = [x.transpose(0, 3, 1, 2)] + random_streams(rng, cfg, 2)[1:]
        saved = [s.copy() for s in streams]
        model.forward(streams)
        assert all(np.array_equal(s, s0) for s, s0 in zip(streams, saved))


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


def shift_persons(stream, M):
    """Move each person slot of a (..., M*N') node axis one slot on, cyclically."""
    return np.roll(stream.reshape(*stream.shape[:-1], M, -1), 1, axis=-2).reshape(stream.shape)


class TestPersonShift:
    """Same weights, same graph, persons moved one slot: `pairwise` and `none` graphs look
    the same from every slot, so the pooled logits must not move; `linear` is the control."""

    SHAPES = {"desk": ("chain", 3, 5, 1, 16, 4), "coco17": ("coco17", 3, 17, 1, 8, 8)}

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("variant", ["pairwise", "none", "linear"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_logits_invariant(self, shape, variant, training):
        layout, M, V, n, T, divisor = self.SHAPES[shape]
        cfg = ModelConfig(M, V, n, T, num_classes=5, channel_divisor=divisor)
        topo = graph.build_topology(layout, M, V, n, variant)
        model = MPGCN(cfg, graph.partition_and_normalize(topo).A_hat, np.random.default_rng(0))
        streams = random_streams(np.random.default_rng(1), cfg, 4)
        base = model.forward(streams, training=training)
        moved = model.forward([shift_persons(s, M) for s in streams], training=training)
        rel = np.abs(moved - base).max() / np.abs(base).max()
        if variant == "linear":  # the end persons of a line are not like the middle one
            assert rel > 1e-3
        else:
            assert rel < 1e-12


def shift_both(matrix, M):
    """Move each person slot of an (M*N', M*N') matrix one slot on, rows and columns."""
    n = matrix.shape[0] // M
    return np.roll(matrix.reshape(M, n, M, n), 1, axis=(0, 2)).reshape(matrix.shape)


def plant_hub_error(model):
    """Scale one cross-person entry of the first hub partition of every SGC by 1.01."""
    for name, child in model._children:
        plant_hub_error(child)
    if type(model).__name__ == "SpatialGraphConv":
        k, hubs, on_hubs, cross = model._hubs[0]
        cross = cross.copy()
        cross.flat[np.flatnonzero(cross)[0]] *= 1.01
        model._hubs[0] = (k, hubs, on_hubs, cross)


class TestPersonShiftGradients:
    """After a training forward and backward, a cyclic person shift of the input shifts the
    input gradients and each dE_k (rows and columns) with it and leaves every other
    parameter gradient as it was. The error of each tensor is taken relative to its
    largest entry; the bound of 1e-8 sits far above float64 rounding (at most 3e-10, in
    a BN gamma whose gradient is a cancelling sum) and far below what a broken symmetry
    gives: `linear` edges move parameter gradients by more than 1, and a 1 % error in
    one hub entry of every SGC moves some tensor by more than 1e-2."""

    BOUND = 1e-8
    SHAPES = {"desk": ("chain", 3, 5, 1, 4), "coco17": ("coco17", 3, 17, 1, 8)}

    def errors(self, shape, variant, planted=False):
        """Per-tensor relative errors: (input gradients, dE_k, other parameter gradients)."""
        layout, M, V, n, divisor = self.SHAPES[shape]
        cfg = ModelConfig(M, V, n, 8, num_classes=4, channel_divisor=divisor)
        topo = graph.build_topology(layout, M, V, n, variant)
        model = MPGCN(cfg, graph.partition_and_normalize(topo).A_hat, np.random.default_rng(0))
        if planted:
            plant_hub_error(model)
        rng = np.random.default_rng(1)
        streams = random_streams(rng, cfg, 3)
        labels = rng.integers(0, cfg.num_classes, size=3)

        def run(inputs):
            model.zero_grad()
            _, glogits = cross_entropy(model.forward(inputs, training=True), labels)
            return model.backward(glogits), {name: g.copy() for name, g in model.named_grads()}

        (gx, grads), (gx_moved, grads_moved) = run(streams), run([shift_persons(s, M) for s in streams])

        def rel(expected, got):  # a tensor that is all zeros (E_2 without inter edges) must stay so
            scale, diff = np.abs(expected).max(), np.abs(got - expected).max()
            return diff / scale if scale else float(diff != 0)

        inputs = [rel(shift_persons(g, M), h) for g, h in zip(gx, gx_moved)]
        is_e = {name: re.fullmatch(r"(.*\.)?E\d", name) is not None for name in grads}
        e = [rel(shift_both(grads[name], M), grads_moved[name]) for name in grads if is_e[name]]
        other = [rel(grads[name], grads_moved[name]) for name in grads if not is_e[name]]
        assert e and other
        return max(inputs), max(e), max(other)

    @pytest.mark.parametrize("shape,variant", [("desk", "pairwise"), ("desk", "none"), ("coco17", "pairwise")])
    def test_gradients_move_with_the_persons(self, shape, variant):
        assert max(self.errors(shape, variant)) < self.BOUND

    def test_linear_edges_break_it(self):
        assert self.errors("desk", "linear")[2] > 1.0

    def test_planted_hub_error_breaks_it(self):
        assert max(self.errors("coco17", "pairwise", planted=True)) > 1e-2


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


def freeze_listed(module, frozen=True):
    """The freezer of panobench/checks.py: the flag on these three classes' instances only."""
    if type(module).__name__ in ("ReLU", "MaxPoolT", "STPAttention"):
        module._freeze_kinks = frozen
    for _, child in module._children:
        freeze_listed(child, frozen)


class TestFreezeKinks:
    def test_fresh_modules_are_not_frozen(self):
        model, _, _ = tiny_model()
        assert Module()._freeze_kinks is False
        assert all(m._freeze_kinks is False for m in all_modules(model))

    def test_freezing_every_module_equals_freezing_the_kinked_ones(self):
        """gradcheck.freeze_kinks sets the flag on every module, panobench's freezer on
        ReLU, MaxPoolT and STPAttention only; frozen on moved inputs, they agree bit for bit."""
        model, cfg, _ = tiny_model(3)
        rng = np.random.default_rng(8)
        streams = random_streams(rng, cfg, 2)
        logits = model.forward(streams, training=True)
        model.backward(np.ones_like(logits))
        moved = [s + 0.5 * rng.standard_normal(s.shape) for s in streams]
        frozen = []
        for freeze in (gradcheck.freeze_kinks, freeze_listed):
            freeze(model)
            try:
                frozen.append(model.forward(moved, training=True))
            finally:
                freeze(model, False)
        assert np.array_equal(frozen[0], frozen[1])
        assert not np.array_equal(frozen[0], model.forward(moved, training=True))


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
