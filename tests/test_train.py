"""Optimizer, schedule, metrics, and training-loop tests."""
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panograph import data_io, gradcheck, train
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


CHAIN = {"layout": "chain", "inter_variant": "pairwise"}  # the graph of tiny_setup's A


def tiny_setup(seed=0, num_classes=5):
    cfg = gradcheck.tiny_model_config(num_classes)
    A = gradcheck.tiny_adjacency(cfg.num_persons, cfg.joints_per_person)
    return cfg, A


def read_config(path):
    """The JSON text of a checkpoint's ``config`` entry."""
    return data_io.read_tensor_container(path)["config"].tobytes().decode()


def write_config(path, text):
    """Rewrite a checkpoint with ``text`` as its ``config`` entry, or without one for None."""
    tensors = data_io.read_tensor_container(path)
    del tensors["config"]
    if text is not None:
        tensors["config"] = np.frombuffer(text.encode(), dtype=np.uint8)
    data_io.write_tensor_container(path, tensors)


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

    def test_non_finite_gradients_move_no_tensor(self):
        """NaN in two tensors: one error names both, and no parameter or velocity moves."""
        cfg, A = tiny_setup()
        model = MPGCN(cfg, A, np.random.default_rng(0))
        opt = train.SGDNesterov(model, train.TrainConfig())
        grads = dict(model.named_grads())
        for g in grads.values():
            g[...] = 1.0
        opt.step(model, lr=0.1)  # a non-zero velocity
        names = list(grads)
        poisoned = [names[-3], names[-1]]
        for name in poisoned:
            grads[name].reshape(-1)[0] = np.nan
        before = {k: p.copy() for k, p in model.named_parameters()}
        velocity = {k: v.copy() for k, v in opt.velocity.items()}
        with pytest.raises(TrainingError) as err:
            opt.step(model, lr=0.1)
        assert str(err.value) == f"non-finite gradient in {poisoned[0]}, {poisoned[1]}"
        assert all(np.array_equal(p, before[k]) for k, p in model.named_parameters())
        assert all(np.array_equal(v, velocity[k]) for k, v in opt.velocity.items())

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
        identity = (np.zeros(2 * cfg.in_channels), np.ones(2 * cfg.in_channels))
        batch = train.stack_batch(ds, [0, 2], dict.fromkeys(STREAM_ORDER, identity))
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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=40))))
    def test_equals_the_confusion_loop(self, case):
        """Whole-array confusion, MCA and MPCA are exactly the per-sample loop's, empty
        classes (rows without samples) included."""
        k, pairs = case
        labels, pred = (np.array(col, dtype=int) for col in zip(*pairs))
        confusion = np.zeros((k, k), dtype=int)
        for t, p in zip(labels, pred):
            confusion[int(t), int(p)] += 1
        per_class = [confusion[c, c] / confusion[c].sum() for c in range(k) if confusion[c].sum() > 0]
        m = train.metrics_from_predictions(pred, labels, k)
        assert np.array_equal(m["confusion"], confusion)
        assert m["mca"] == float((pred == labels).mean())
        assert m["mpca"] == float(np.mean(per_class))


class TestTrainLoop:
    def make_cfg(self, **kw):
        base = dict(epochs=3, warmup_epochs=1, base_lr=0.05, batch_size=4, seed=0)
        base.update(kw)
        return train.TrainConfig(**base)

    def test_records_structure_and_determinism(self):
        cfg, _ = tiny_setup()
        ds = tiny_dataset(cfg, 8, np.random.default_rng(4))
        runs = []
        for _ in range(2):
            tc = self.make_cfg(base_lr=0.002)  # 0.05 diverges to a loss of ~1e19 here
            _, _, records = train.train_loop(ds, cfg, tc, CHAIN, out_dir=None)
            runs.append(records)
        assert runs[0] == runs[1]
        assert set(runs[0][0]) == {"epoch", "lr", "train_loss", "train_mca", "val_mca"}
        assert all(np.isfinite(r["train_loss"]) for r in runs[0])
        assert runs[0][-1]["train_loss"] < runs[0][0]["train_loss"]

    def test_single_sample_memorization(self):
        cfg, _ = tiny_setup()
        ds = tiny_dataset(cfg, 1, np.random.default_rng(5))
        tc = self.make_cfg(epochs=60, warmup_epochs=5, base_lr=0.02, batch_size=1)
        _, _, records = train.train_loop(ds, cfg, tc, CHAIN, out_dir=None, use_validation=False)
        assert records[-1]["train_loss"] < 0.01
        assert records[-1]["train_loss"] < records[0]["train_loss"]

    def test_loss_decreases_on_separable_data(self):
        cfg, _ = tiny_setup()
        ds = tiny_dataset(cfg, 10, np.random.default_rng(6))
        _, _, records = train.train_loop(
            ds, cfg, self.make_cfg(epochs=10, warmup_epochs=2, base_lr=0.01), CHAIN, out_dir=None
        )
        assert records[-1]["train_loss"] < records[0]["train_loss"]

    def test_empty_dataset(self):
        cfg, _ = tiny_setup()
        with pytest.raises(InputError):
            train.train_loop(train.Dataset([], np.array([], dtype=int)), cfg, self.make_cfg(), CHAIN)

    def test_label_out_of_range(self):
        cfg, _ = tiny_setup(num_classes=5)
        ds = tiny_dataset(cfg, 4, np.random.default_rng(7))
        ds.labels[0] = 9
        with pytest.raises(InputError):
            train.train_loop(ds, cfg, self.make_cfg(), CHAIN)

    def test_unknown_graph_refused_before_first_epoch(self, tmp_path):
        """The model is built on the graph the checkpoints will carry: one it cannot
        build stops the run before any epoch, record or file."""
        cfg, _ = tiny_setup()
        ds = tiny_dataset(cfg, 8, np.random.default_rng(8))
        records = []
        with pytest.raises(ConfigError, match="graph: unknown skeleton layout 'ring'"):
            train.train_loop(ds, cfg, self.make_cfg(), {"layout": "ring"}, out_dir=str(tmp_path),
                             log_fn=records.append)
        assert records == [] and list(tmp_path.iterdir()) == []

    def test_metrics_appended_per_epoch(self, tmp_path, monkeypatch):
        """A run that fails in its second epoch leaves the first epoch's record on disk."""
        cfg, _ = tiny_setup()
        ds = tiny_dataset(cfg, 8, np.random.default_rng(8))
        steps, records = [], []
        step = train.SGDNesterov.step

        def failing_step(self, model, lr):
            steps.append(lr)
            if len(steps) > 2:  # 7 training clips in batches of 4: two steps an epoch
                raise TrainingError("non-finite gradient in w")
            step(self, model, lr)

        monkeypatch.setattr(train.SGDNesterov, "step", failing_step)
        with pytest.raises(TrainingError):
            train.train_loop(ds, cfg, self.make_cfg(base_lr=0.002), CHAIN, out_dir=str(tmp_path),
                             log_fn=records.append)
        assert len(records) == 1 and records[0]["epoch"] == 0
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == records


class TestEvaluateAndCheckpoints:
    def trained(self, tmp_path, graph_info=CHAIN):
        cfg, _ = tiny_setup()
        ds = tiny_dataset(cfg, 8, np.random.default_rng(8))
        model, stats, _ = train.train_loop(
            ds,
            cfg,
            train.TrainConfig(epochs=2, warmup_epochs=1, base_lr=0.05, batch_size=4),
            graph_info,
            out_dir=str(tmp_path),
        )
        return cfg, ds, model, stats

    def test_fused_self_evaluation_identity(self, tmp_path):
        _, ds, model, stats = self.trained(tmp_path)
        single = train.evaluate(ds, [(model, stats)])
        fused = train.evaluate(ds, [(model, stats), (model, stats)])
        assert single["mca"] == fused["mca"]
        assert single["mpca"] == fused["mpca"]
        assert np.array_equal(single["confusion"], fused["confusion"])

    def test_val_metrics_cover_validation_split(self, tmp_path):
        _, ds, model, stats = self.trained(tmp_path)
        val_idx = np.flatnonzero(train.validation_mask(len(ds)))
        assert list(val_idx) == [6]
        val = train.evaluate(ds, [(model, stats)])["val"]
        alone = train.evaluate_model(model, ds, val_idx, stats)
        assert val["mca"] == alone["mca"] and val["mpca"] == alone["mpca"]
        assert np.array_equal(val["confusion"], alone["confusion"])
        head = train.Dataset(ds.streams[:6], ds.labels[:6])
        assert train.evaluate(head, [(model, stats)])["val"] is None

    @pytest.mark.parametrize("label", [-1, 5])
    def test_label_out_of_range_rejected(self, tmp_path, label):
        _, ds, model, stats = self.trained(tmp_path)
        ds.labels[3] = label
        with pytest.raises(InputError, match=f"label {label} out of range for 5 classes"):
            train.evaluate(ds, [(model, stats)])

    def test_no_checkpoint_rejected(self):
        ds = tiny_dataset(tiny_setup()[0], 2, np.random.default_rng(0))
        with pytest.raises(InputError, match="need at least one checkpoint"):
            train.evaluate(ds, [])

    def test_fused_class_counts_must_match(self):
        """Checked before any forward, so untrained models and no stats will do."""
        ds = tiny_dataset(tiny_setup()[0], 5, np.random.default_rng(0))
        models = [(MPGCN(*tiny_setup(num_classes=k), np.random.default_rng(0)), {}) for k in (5, 3)]
        with pytest.raises(InputError, match="fused checkpoints must share num_classes"):
            train.evaluate(ds, models)

    def test_checkpoint_roundtrip_exact_logits(self, tmp_path):
        _, ds, model, stats = self.trained(tmp_path)
        loaded, loaded_stats = train.load_checkpoint(str(tmp_path / "ckpt_final.pgt"))
        batch = train.stack_batch(ds, [0, 1], stats)
        assert np.array_equal(model.forward(batch), loaded.forward(batch))
        for key in STREAM_ORDER:
            assert np.array_equal(stats[key][0], loaded_stats[key][0])

    def test_checkpoint_without_graph_info_refused(self, tmp_path):
        self.trained(tmp_path)
        path = str(tmp_path / "ckpt_final.pgt")
        config = json.loads(read_config(path))
        del config["graph"]
        write_config(path, json.dumps(config))
        with pytest.raises(FormatError, match=re.escape(f"{path}: config: graph must be an object")
                           + ".*got None"):
            train.load_checkpoint(path)

    def test_checkpoint_with_graph_info_self_contained(self, tmp_path):
        """A model trained without inter-person edges loads with that graph's adjacency,
        not the default pairwise one, and scores as before."""
        _, pairwise = tiny_setup()
        _, ds, model, stats = self.trained(tmp_path, {"layout": "chain", "inter_variant": "none"})
        loaded, _ = train.load_checkpoint(str(tmp_path / "ckpt_final.pgt"))
        assert np.array_equal(loaded.adjacency, model.adjacency)
        assert not np.array_equal(loaded.adjacency, pairwise)
        batch = train.stack_batch(ds, [0, 1], stats)
        assert np.array_equal(model.forward(batch), loaded.forward(batch))

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"tcn_dilations": [1, 2], "channel_divisor": 2}, "unknown ['tcn_dilations']"),
            ({"num_frames": None}, "missing ['num_frames']"),
        ],
    )
    def test_checkpoint_sidecar_keys_must_match_config(self, tmp_path, change, named):
        cfg, *_ = self.trained(tmp_path)
        path = str(tmp_path / "ckpt_final.pgt")
        config = json.loads(read_config(path))
        assert config == {**dataclasses.asdict(cfg), "graph": CHAIN}
        for key, value in change.items():
            if value is None:
                del config[key]
            else:
                config[key] = value
        write_config(path, json.dumps(config))
        with pytest.raises(FormatError, match=re.escape(f"{path}: config keys") + ".*" + re.escape(named)):
            train.load_checkpoint(path)

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"graph": {"inter_variant": "pairwise"}}, "graph must be an object with a string layout"),
            ({"graph": {"layout": "ring"}}, "graph: unknown skeleton layout 'ring'"),
            ({"graph": {"layout": "chain", "inter_variant": 2}}, "graph must be an object"),
            ({"graph": ["chain"]}, "graph must be an object"),
            ({"num_persons": "2"}, "num_persons must be int, got '2'"),
            ({"num_classes": True}, "num_classes must be int, got True"),
            ({"channel_divisor": "4"}, "channel_divisor must be int, got '4'"),
            ({"channel_divisor": [4]}, "channel_divisor must be int, got [4]"),
            ({"num_classes": 1}, "need at least two classes"),
            ({"in_channels": 0}, "in_channels must be >= 1, got 0"),
            ({"channel_divisor": 3}, "block output 21 not a multiple of 4"),
        ],
        ids=["no_layout", "unknown_layout", "variant_int", "graph_list", "persons_str",
             "classes_bool", "divisor_str", "divisor_list", "one_class", "no_channels", "divisor_3"],
    )
    def test_checkpoint_sidecar_types_checked(self, tmp_path, change, named):
        self.trained(tmp_path)
        path = str(tmp_path / "ckpt_final.pgt")
        config = json.loads(read_config(path))
        config.update(change)
        write_config(path, json.dumps(config))
        with pytest.raises(FormatError, match=re.escape(f"{path}: config: {named}")):
            train.load_checkpoint(path)

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda t: t.pop("param.branch0.block0.sgc.W0"),
             "parameter names differ: missing ['branch0.block0.sgc.W0'], unknown []"),
            (lambda t: t.update({"param.branch0.block0.res1.w": np.zeros(1)}),
             "parameter 'branch0.block0.res1.w' has shape (1,), expected (16, 6)"),
            (lambda t: t.update({"param.extra.w": np.zeros(2)}),
             "parameter names differ: missing [], unknown ['extra.w']"),
            (lambda t: t.pop("buffer.branch0.block0.bn1.running_var"),
             "buffer names differ: missing ['branch0.block0.bn1.running_var']"),
            (lambda t: t.pop("norm.joint.mean"), "missing ['norm.joint.mean'], unknown []"),
            (lambda t: t.update({"junk": np.zeros(1)}), "missing [], unknown ['junk']"),
            (lambda t: t.update({"norm.joint.std": np.zeros(6)}), "entry 'norm.joint.std' is not > 0"),
            (lambda t: t.update({"norm.bone.std": np.array([1.0, 1.0, -1.0, 1.0, 1.0, 1.0])}),
             "entry 'norm.bone.std' is not > 0"),
            (lambda t: t.update({"norm.bone.mean": np.zeros(4)}),
             "entry 'norm.bone.mean' has shape (4,), expected (6,)"),
        ],
        ids=["missing_param", "wrong_shape", "unknown_param", "missing_buffer", "missing_norm",
             "unknown_entry", "zero_norm_std", "negative_norm_std", "norm_mean_width"],
    )
    def test_checkpoint_tensors_must_match_model(self, tmp_path, mutate, named):
        self.trained(tmp_path)
        path = str(tmp_path / "ckpt_final.pgt")
        tensors = data_io.read_tensor_container(path)
        mutate(tensors)
        data_io.write_tensor_container(path, tensors)
        with pytest.raises(FormatError, match=re.escape(f"{path}: ") + ".*" + re.escape(named)):
            train.load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [("param.branch0.block0.sgc.W0", np.nan),
                                             ("buffer.main.block1.bn2.running_var", np.inf),
                                             ("norm.bone.std", -np.inf)])
    def test_checkpoint_refuses_non_finite_entries(self, tmp_path, name, value):
        self.trained(tmp_path)
        path = str(tmp_path / "ckpt_final.pgt")
        tensors = data_io.read_tensor_container(path)
        tensors[name].flat[1] = value
        data_io.write_tensor_container(path, tensors)
        with pytest.raises(FormatError, match=re.escape(f"{path}: entry {name!r} is not finite")):
            train.load_checkpoint(path)

    def test_load_state_leaves_module_unchanged_on_mismatch(self):
        cfg, A = tiny_setup()
        model = MPGCN(cfg, A, np.random.default_rng(0))
        before = {name: p.copy() for name, p in model.named_parameters()}
        params = {name: np.ones_like(p) for name, p in before.items()}
        buffers = {name: b.copy() for name, b in model.named_buffers()}
        buffers.popitem()
        with pytest.raises(FormatError, match="buffer names differ"):
            model.load_state(params, buffers)
        assert all(np.array_equal(p, before[name]) for name, p in model.named_parameters())

    def test_checkpoint_config_missing_or_truncated(self, tmp_path):
        """A truncated config entry is malformed; a container without one (as written
        before the config moved into the checkpoint) is refused by name."""
        self.trained(tmp_path)
        path = str(tmp_path / "ckpt_final.pgt")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt_best.pgt", "ckpt_final.pgt",
                                                              "metrics.jsonl"]
        text = read_config(path)
        write_config(path, text[: len(text) // 2])
        with pytest.raises(FormatError, match=re.escape(f"{path}: config: malformed")):
            train.load_checkpoint(path)
        write_config(path, None)
        with pytest.raises(FormatError, match=re.escape(f"{path}: no config entry")):
            train.load_checkpoint(path)

    def test_failed_sidecar_write_keeps_previous(self, tmp_path, monkeypatch):
        """A checkpoint write that fails part way leaves the old file and no temp file."""
        *_, model, stats = self.trained(tmp_path)
        path = str(tmp_path / "ckpt_final.pgt")
        before = (tmp_path / "ckpt_final.pgt").read_bytes()
        listing = sorted(p.name for p in tmp_path.iterdir())
        write_atomic = data_io.write_atomic

        def broken_write(target, write, mode):
            def half(fh):
                fh.write(b"PGT1")
                raise OSError("disk full")

            write_atomic(target, half, mode)

        monkeypatch.setattr(data_io, "write_atomic", broken_write)
        with pytest.raises(OSError, match="disk full"):
            train.save_checkpoint(path, model, stats, CHAIN)
        assert (tmp_path / "ckpt_final.pgt").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == listing

    def test_checkpoint_container_missing(self, tmp_path):
        self.trained(tmp_path)
        path = str(tmp_path / "ckpt_final.pgt")
        (tmp_path / "ckpt_final.pgt").unlink()
        with pytest.raises(InputError, match=re.escape(f"{path}: cannot read")):
            train.load_checkpoint(path)

    def test_metrics_log_written(self, tmp_path):
        self.trained(tmp_path)
        lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """An untrained tiny checkpoint with graph info: its bytes, and the offsets of every
    byte that is not a float payload (the container header, entry headers, config JSON)."""
    cfg, A = tiny_setup()
    path = str(tmp_path_factory.mktemp("fuzz") / "ckpt.pgt")
    stats = {key: (np.zeros(2 * cfg.in_channels), np.ones(2 * cfg.in_channels))
             for key in STREAM_ORDER}
    train.save_checkpoint(path, MPGCN(cfg, A, np.random.default_rng(0)), stats, CHAIN)
    structure, off = list(range(8)), 8
    for name, arr in data_io.read_tensor_container(path).items():
        head = 4 + len(name.encode()) + 4 * arr.ndim
        structure += range(off, off + head + (arr.nbytes if name == "config" else 0))
        off += head + arr.nbytes
    return open(path, "rb").read(), structure


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_checkpoint_byte_mutation_raises_only_format_error(tiny_checkpoint, data):
    """One byte overwritten, in the structure or anywhere: ``load_checkpoint`` returns a
    model or raises FormatError (one byte can turn a width into at most 3 digits)."""
    import tempfile

    raw, structure = tiny_checkpoint
    pos = data.draw(st.one_of(st.sampled_from(structure), st.integers(0, len(raw) - 1)))
    mutated = bytearray(raw)
    mutated[pos] = data.draw(st.integers(0, 255).filter(lambda v: v != raw[pos]))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/ckpt.pgt"
        open(path, "wb").write(bytes(mutated))
        try:
            train.load_checkpoint(path)
        except FormatError:
            pass
