"""Optimizer, schedule, metrics, and training-loop tests."""
import dataclasses
import json
import re

import numpy as np
import pytest

from panograph import gradcheck, train
from panograph.errors import ConfigError, FormatError, InputError, TrainingError
from panograph.nn import MPGCN, cross_entropy
from panograph.nn.core import Module
from panograph.nn.model import STREAM_ORDER


class ScalarModel(Module):
    """One learnable scalar, for hand-traceable optimizer tests."""

    def __init__(self, value):
        super().__init__()
        self.w = self.param("w", np.array([value]))

    def set_grad(self, g):
        self._grads["w"][:] = g


def tiny_setup(seed=0, num_classes=5):
    cfg = gradcheck.tiny_model_config(num_classes)
    A = gradcheck.tiny_adjacency(cfg.num_persons, cfg.joints_per_person)
    return cfg, A


def tiny_dataset(cfg, size, rng, separable=True):
    """Random streams; labels either encoded in the data or arbitrary."""
    streams, labels = [], []
    for i in range(size):
        label = i % cfg.num_classes
        sample = {}
        for key in STREAM_ORDER:
            x = rng.standard_normal((cfg.num_frames, cfg.num_nodes, 2 * cfg.in_channels))
            if separable:
                x[..., 0] += 3.0 * label
            sample[key] = x
        streams.append(sample)
        labels.append(label)
    return train.Dataset(streams, np.array(labels))


class TestSchedule:
    def test_warmup_endpoint_and_cosine_start(self):
        cfg = train.TrainConfig()
        assert train.lr_at(4, cfg) == pytest.approx(0.1, abs=1e-15)
        assert train.lr_at(5, cfg) == pytest.approx(0.1, abs=1e-15)

    def test_warmup_is_linear(self):
        cfg = train.TrainConfig()
        for e in range(5):
            assert train.lr_at(e, cfg) == pytest.approx(0.1 * (e + 1) / 5, abs=1e-15)

    def test_final_epoch_value(self):
        cfg = train.TrainConfig()
        expected = 0.1 * 0.5 * (1 + np.cos(59 * np.pi / 60))
        assert train.lr_at(64, cfg) == pytest.approx(expected, abs=1e-12)
        assert train.lr_at(64, cfg) == pytest.approx(6.8e-5, rel=0.02)

    def test_monotone_decay_after_warmup(self):
        cfg = train.TrainConfig()
        lrs = [train.lr_at(e, cfg) for e in range(5, 65)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range(self):
        cfg = train.TrainConfig()
        with pytest.raises(InputError):
            train.lr_at(65, cfg)
        with pytest.raises(InputError):
            train.lr_at(-1, cfg)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            train.TrainConfig(epochs=3, warmup_epochs=5).validate()
        with pytest.raises(ConfigError):
            train.TrainConfig(base_lr=0.0).validate()


class TestOptimizer:
    def test_hand_traced_nesterov_step(self):
        model = ScalarModel(1.0)
        cfg = train.TrainConfig(momentum=0.9, weight_decay=0.0)
        opt = train.SGDNesterov(model, cfg)
        model.set_grad(1.0)
        opt.step(model, lr=0.1)
        assert model.w[0] == pytest.approx(0.81, abs=1e-15)
        assert opt.velocity["w"][0] == pytest.approx(1.0, abs=1e-15)

    def test_weight_decay_only(self):
        model = ScalarModel(2.0)
        cfg = train.TrainConfig(momentum=0.0, weight_decay=0.1)
        opt = train.SGDNesterov(model, cfg)
        model.set_grad(0.0)
        opt.step(model, lr=0.5)
        assert model.w[0] == pytest.approx(1.9, abs=1e-15)

    def test_zero_grad_zero_wd_noop(self):
        model = ScalarModel(3.0)
        opt = train.SGDNesterov(model, train.TrainConfig(weight_decay=0.0))
        model.set_grad(0.0)
        opt.step(model, lr=0.1)
        assert model.w[0] == 3.0

    def test_zero_lr_noop(self):
        model = ScalarModel(3.0)
        opt = train.SGDNesterov(model, train.TrainConfig())
        model.set_grad(1.0)
        opt.step(model, lr=0.0)
        assert model.w[0] == 3.0

    def test_velocity_accumulates(self):
        model = ScalarModel(0.0)
        cfg = train.TrainConfig(momentum=0.5, weight_decay=0.0)
        opt = train.SGDNesterov(model, cfg)
        for _ in range(2):
            model.set_grad(1.0)
            opt.step(model, lr=0.0)
        # v1 = 1, v2 = 0.5*1 + 1
        assert opt.velocity["w"][0] == pytest.approx(1.5, abs=1e-15)

    def test_non_finite_gradient_names_parameter(self):
        model = ScalarModel(1.0)
        opt = train.SGDNesterov(model, train.TrainConfig())
        model.set_grad(np.nan)
        with pytest.raises(TrainingError, match="w"):
            opt.step(model, lr=0.1)

    def test_batchnorm_params_skip_weight_decay(self):
        cfg, A = tiny_setup()
        model = MPGCN(cfg, A, np.random.default_rng(0))
        opt = train.SGDNesterov(model, train.TrainConfig(weight_decay=0.1))
        before = {k: v.copy() for k, v in model.named_parameters()}
        model.zero_grad()
        opt.step(model, lr=0.5)
        for name, p in model.named_parameters():
            if name.endswith(".gamma") or name.endswith(".beta"):
                assert np.array_equal(p, before[name]), name
            elif np.any(before[name] != 0):
                assert not np.array_equal(p, before[name]), name


class TestSplitAndBatching:
    def test_split_is_deterministic_and_roughly_20_percent(self):
        flags = [train.is_validation_index(i) for i in range(1000)]
        assert flags == [train.is_validation_index(i) for i in range(1000)]
        frac = sum(flags) / 1000
        assert 0.1 < frac < 0.3

    def test_stack_batch_layout(self):
        cfg, _ = tiny_setup()
        ds = tiny_dataset(cfg, 3, np.random.default_rng(0))
        batch = train.stack_batch(ds, [0, 2])
        assert len(batch) == 4
        for x in batch:
            assert x.shape == (2, 2 * cfg.in_channels, cfg.num_frames, cfg.num_nodes)
        assert np.array_equal(batch[0][1], np.transpose(ds.streams[2]["joint"], (2, 0, 1)))

    def test_norm_stats_standardize_training_split(self):
        cfg, _ = tiny_setup()
        ds = tiny_dataset(cfg, 8, np.random.default_rng(1))
        idx = list(range(8))
        stats = train.compute_norm_stats(ds, idx)
        batch = train.stack_batch(ds, idx, stats)
        for x in batch:
            assert np.allclose(x.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
            assert np.allclose(x.std(axis=(0, 2, 3)), 1.0, atol=1e-10)

    def test_constant_channel_does_not_divide_by_zero(self):
        cfg, _ = tiny_setup()
        ds = tiny_dataset(cfg, 4, np.random.default_rng(2))
        for s in ds.streams:
            for key in STREAM_ORDER:
                s[key][..., 3] = 7.0
        stats = train.compute_norm_stats(ds, range(4))
        for key in STREAM_ORDER:
            assert stats[key][1][3] == 1.0


class TestMetrics:
    def test_perfect_predictor(self):
        labels = np.array([0, 1, 2, 0])
        m = train.metrics_from_predictions(labels.copy(), labels, 3)
        assert m["mca"] == 1.0 and m["mpca"] == 1.0

    def test_skewed_split_example(self):
        # 2 classes, 10/90 split, predictor always answers the majority class
        labels = np.array([0] * 10 + [1] * 90)
        pred = np.ones(100, dtype=int)
        m = train.metrics_from_predictions(pred, labels, 2)
        assert m["mca"] == pytest.approx(0.9)
        assert m["mpca"] == pytest.approx(0.5)
        assert m["confusion"].tolist() == [[0, 10], [0, 90]]

    def test_absent_classes_excluded_from_mpca(self):
        labels = np.array([0, 0, 1])
        pred = np.array([0, 0, 0])
        m = train.metrics_from_predictions(pred, labels, 5)
        assert m["mpca"] == pytest.approx(0.5)  # classes 2..4 never occur

    def test_balanced_duplication_invariance(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=30)
        pred = rng.integers(0, 3, size=30)
        a = train.metrics_from_predictions(pred, labels, 3)
        b = train.metrics_from_predictions(np.tile(pred, 2), np.tile(labels, 2), 3)
        assert a["mpca"] == pytest.approx(b["mpca"])


class TestTrainLoop:
    def make_cfg(self, **kw):
        base = dict(epochs=3, warmup_epochs=1, base_lr=0.05, batch_size=4, seed=0)
        base.update(kw)
        return train.TrainConfig(**base)

    def test_records_structure_and_determinism(self):
        cfg, A = tiny_setup()
        ds = tiny_dataset(cfg, 8, np.random.default_rng(4))
        runs = []
        for _ in range(2):
            _, _, records = train.train_loop(ds, cfg, self.make_cfg(), A, out_dir=None)
            runs.append(records)
        assert runs[0] == runs[1]
        assert set(runs[0][0]) == {"epoch", "lr", "train_loss", "train_mca", "val_mca"}

    def test_single_sample_memorization(self):
        cfg, A = tiny_setup()
        ds = tiny_dataset(cfg, 1, np.random.default_rng(5))
        tc = self.make_cfg(epochs=60, warmup_epochs=5, base_lr=0.02, batch_size=1)
        _, _, records = train.train_loop(ds, cfg, tc, A, out_dir=None, use_validation=False)
        assert records[-1]["train_loss"] < 0.01
        assert records[-1]["train_loss"] < records[0]["train_loss"]

    def test_loss_decreases_on_separable_data(self):
        cfg, A = tiny_setup()
        ds = tiny_dataset(cfg, 10, np.random.default_rng(6))
        _, _, records = train.train_loop(
            ds, cfg, self.make_cfg(epochs=10, warmup_epochs=2, base_lr=0.01), A, out_dir=None
        )
        assert records[-1]["train_loss"] < records[0]["train_loss"]

    def test_empty_dataset(self):
        cfg, A = tiny_setup()
        with pytest.raises(InputError):
            train.train_loop(train.Dataset([], np.array([], dtype=int)), cfg, self.make_cfg(), A)

    def test_label_out_of_range(self):
        cfg, A = tiny_setup(num_classes=5)
        ds = tiny_dataset(cfg, 4, np.random.default_rng(7))
        ds.labels[0] = 9
        with pytest.raises(InputError):
            train.train_loop(ds, cfg, self.make_cfg(), A)


class TestEvaluateAndCheckpoints:
    def trained(self, tmp_path, graph_info=None):
        cfg, A = tiny_setup()
        ds = tiny_dataset(cfg, 8, np.random.default_rng(8))
        model, stats, _ = train.train_loop(
            ds,
            cfg,
            train.TrainConfig(epochs=2, warmup_epochs=1, base_lr=0.05, batch_size=4),
            A,
            out_dir=str(tmp_path),
            graph_info=graph_info,
        )
        return cfg, A, ds, model, stats

    def test_fused_self_evaluation_identity(self, tmp_path):
        _, _, ds, model, stats = self.trained(tmp_path)
        single = train.evaluate(ds, [(model, stats)])
        fused = train.evaluate(ds, [(model, stats), (model, stats)], fuse=True)
        assert single["mca"] == fused["mca"]
        assert single["mpca"] == fused["mpca"]
        assert np.array_equal(single["confusion"], fused["confusion"])

    def test_multiple_without_fuse_rejected(self, tmp_path):
        _, _, ds, model, stats = self.trained(tmp_path)
        with pytest.raises(InputError):
            train.evaluate(ds, [(model, stats), (model, stats)], fuse=False)

    def test_checkpoint_roundtrip_exact_logits(self, tmp_path):
        cfg, A, ds, model, stats = self.trained(tmp_path)
        loaded, loaded_stats = train.load_checkpoint(str(tmp_path / "ckpt_final.pgt"), A)
        batch = train.stack_batch(ds, [0, 1], stats)
        assert np.array_equal(model.forward(batch), loaded.forward(batch))
        for key in STREAM_ORDER:
            assert np.array_equal(stats[key][0], loaded_stats[key][0])

    def test_checkpoint_without_graph_info_needs_adjacency(self, tmp_path):
        self.trained(tmp_path)
        with pytest.raises(InputError):
            train.load_checkpoint(str(tmp_path / "ckpt_final.pgt"))

    def test_checkpoint_with_graph_info_self_contained(self, tmp_path):
        info = {"layout": "chain", "inter_variant": "pairwise"}
        cfg, A, ds, model, stats = self.trained(tmp_path, graph_info=info)
        loaded, _ = train.load_checkpoint(str(tmp_path / "ckpt_final.pgt"))
        batch = train.stack_batch(ds, [0], stats)
        assert np.array_equal(model.forward(batch), loaded.forward(batch))

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"tcn_dilations": [1, 2], "input_branch_channels": [[6, 16], [16, 16], [16, 8]]},
             "unknown ['tcn_dilations']"),
            ({"num_frames": None}, "missing ['num_frames']"),
        ],
    )
    def test_checkpoint_sidecar_keys_must_match_config(self, tmp_path, change, named):
        cfg, A, *_ = self.trained(tmp_path)
        sidecar_path = tmp_path / "ckpt_final.pgt.json"
        sidecar = json.loads(sidecar_path.read_text())
        assert sidecar == dataclasses.asdict(cfg)
        for key, value in change.items():
            if value is None:
                del sidecar[key]
            else:
                sidecar[key] = value
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(FormatError, match=re.escape(named)):
            train.load_checkpoint(str(tmp_path / "ckpt_final.pgt"), A)

    def test_metrics_log_written(self, tmp_path):
        self.trained(tmp_path)
        lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
