"""CLI pipeline tests (in-process via cli.main)."""
import contextlib
import dataclasses
import io
import json
import os
import shutil
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panograph import cli, data_io, features, gradcheck, graph, train
from panograph.nn import STREAM_ORDER


TRAIN_CONFIG = """\
# desk-scale run
epochs = 3
warmup_epochs = 1
base_lr = 0.02
batch_size = 4
seed = 0
channel_divisor = 8
inter_variant = pairwise
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> reassign -> features -> train, once per module."""
    root = tmp_path_factory.mktemp("pipeline")
    data = str(root / "data")
    out = str(root / "run")
    assert cli.main([
        "synth", "--classes", "2", "--per-class", "4", "--persons", "2",
        "--joints", "3", "--objects", "1", "--frames", "8", "--seed", "1",
        "--out", data,
    ]) == 0
    assert cli.main(["reassign", "--data", data]) == 0
    assert cli.main(["features", "--data", data]) == 0
    cfg = root / "train.cfg"
    cfg.write_text(TRAIN_CONFIG)
    assert cli.main(["train", "--config", str(cfg), "--data", data, "--out", out]) == 0
    return root, data, out


class TestUsage:
    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--out", "x", "--turbo"])
        assert exc.value.code == 2


class TestSynth:
    def test_outputs(self, pipeline):
        _, data, _ = pipeline
        manifest = data_io.load_manifest(data)
        assert len(manifest["samples"]) == 8
        for entry in manifest["samples"]:
            assert os.path.exists(os.path.join(data, entry["jsonl"]))
            assert os.path.exists(os.path.join(data, entry["truth"]))

    @pytest.mark.parametrize("flags, error", [
        (["--objects", "-1"], "num_objects must be >= 0, got -1"),
        (["--distractors", "-2", "--id-switch", "0.5"], "num_distractors must be >= 0, got -2"),
        (["--conf-jitter", "-0.1"], "conf_jitter must be >= 0, got -0.1"),
        (["--conf-jitter", "nan"], "conf_jitter must be >= 0, got nan"),
        (["--dropout", "1.5"], "dropout_prob must be in [0, 1], got 1.5"),
        (["--id-switch", "nan"], "id_switch_prob must be in [0, 1], got nan"),
        (["--distractor-conf", "nan"], "distractor_conf must be in [0, 1], got nan"),
        (["--distractor-conf", "2"], "distractor_conf must be in [0, 1], got 2.0"),
        (["--distractor-conf", "-1"], "distractor_conf must be in [0, 1], got -1.0"),
        (["--noise", "inf"], "noise_std must be finite, got inf"),
        (["--conf-jitter", "inf"], "conf_jitter must be finite, got inf"),
    ], ids=["objects", "distractors", "jitter", "jitter-nan", "dropout", "id-switch-nan",
            "distractor-conf-nan", "distractor-conf-2", "distractor-conf-neg", "noise-inf",
            "jitter-inf"])
    def test_spec_out_of_range_exits_1(self, tmp_path, capsys, flags, error):
        """A spec synth cannot write stops it before it writes anything."""
        out = tmp_path / "data"
        assert cli.main(["synth", "--persons", "3", "--joints", "3", "--frames", "8", *flags,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert not out.exists()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        """Every synth output is written to a temp file and renamed: a write that fails
        leaves neither the file nor a temp file."""
        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        assert cli.main(["synth", "--classes", "2", "--per-class", "1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")
        assert [f for _, _, files in os.walk(tmp_path) for f in files] == []


class TestReassign:
    def test_tensors_and_report(self, pipeline):
        _, data, _ = pipeline
        manifest = data_io.load_manifest(data)
        first = manifest["samples"][0]["id"]
        tensors = data_io.read_tensor_container(os.path.join(data, "tensors", first + ".pgt"))
        assert tensors["skeleton"].shape == (8, 2, 4, 3)  # V+n nodes per person
        report = json.load(open(os.path.join(data, "reassign_report.json")))
        assert set(report) == {e["id"] for e in manifest["samples"]}
        assert "slot_mean_track_len" in report[first]

    def test_score_mode_is_not_an_option(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reassign", "--data", str(tmp_path), "--score-mode", "conf_only"])
        assert exc.value.code == 2

    def test_failed_report_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        """reassign_report.json is renamed into place, so a failed write leaves no
        report and no temp file."""
        data = str(tmp_path / "data")
        assert cli.main(["synth", "--classes", "2", "--per-class", "1", "--out", data]) == 0
        replace = os.replace

        def no_space_for_report(src, dst):
            if dst.endswith("reassign_report.json"):
                raise OSError(28, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", no_space_for_report)
        assert cli.main(["reassign", "--data", data]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")
        assert sorted(os.listdir(data)) == ["manifest.json", "samples", "tensors", "truth"]

    def test_missing_manifest_exits_1(self, tmp_path, capsys):
        assert cli.main(["reassign", "--data", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reassign", "features"])
    @pytest.mark.parametrize("text", ["{not json", "{}", "[]"])
    def test_malformed_manifest_exits_1(self, tmp_path, capsys, command, text):
        (tmp_path / "manifest.json").write_text(text)
        assert cli.main([command, "--data", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 'manifest.json'}: ")

    GRAPH = {"layout": "chain", "num_persons": 2, "num_joints": 3, "num_objects": 1}
    TRAIN = {**GRAPH, "num_frames": 4, "num_classes": 2}
    ROSTER = {"num_joints": 2, "num_persons": 2, "num_frames": 2}
    FILES = {"id": "a", "jsonl": "samples/a.jsonl", "truth": "truth/a.pgt"}
    DETECTION = {"t": 0, "id": 0, "conf": 1.0, "bbox": [0, 0, 1, 1], "kpts": [[0, 0, 1]] * 2}
    TRUTH = {"truth/a.pgt": {"objects": np.zeros((1, 0, 3))}}
    NO_FILE = "cannot read (No such file or directory)"

    @pytest.mark.parametrize("command,manifest,files,error", [
        ("features", {"samples": []}, {}, "manifest.json: lacks key 'layout'"),
        ("reassign", {"samples": [{"id": "a"}], "num_joints": 5, "num_persons": 2, "num_frames": 2}, {},
         "manifest.json: sample 0 lacks key 'jsonl'"),
        ("reassign", {"samples": [], "num_joints": 5}, {}, "manifest.json: lacks key 'num_persons'"),
        ("features", {"samples": [{"id": "a"}, 3], **GRAPH}, {},
         "manifest.json: sample 1 lacks key 'id'"),
        ("train", {"samples": [], **GRAPH, "num_frames": 4}, {},
         "manifest.json: lacks key 'num_classes'"),
        ("eval", {"samples": [{"id": "a"}]}, {}, "manifest.json: sample 0 lacks key 'label'"),
        ("features", {"samples": [], **GRAPH, "num_persons": "2"}, {},
         "manifest.json: key 'num_persons' is str, expected int"),
        ("train", {"samples": [], **TRAIN, "num_classes": True}, {},
         "manifest.json: key 'num_classes' is bool, expected int"),
        ("eval", {"samples": [{"id": "a", "label": 1.0}]}, {},
         "manifest.json: sample 0 key 'label' is float, expected int"),
        ("reassign", {"samples": [{**FILES, "id": 7}], **ROSTER}, {},
         "manifest.json: sample 0 key 'id' is int, expected str"),
        ("reassign", {"samples": [FILES], **ROSTER}, {}, f"samples/a.jsonl: {NO_FILE}"),
        ("reassign", {"samples": [FILES], **ROSTER}, {"samples/a.jsonl": json.dumps(DETECTION)},
         f"truth/a.pgt: {NO_FILE}"),
        ("features", {"samples": [{"id": "a"}], **GRAPH}, {}, f"tensors/a.pgt: {NO_FILE}"),
        ("train", {"samples": [{"id": "a", "label": 0}], **TRAIN}, {}, f"train.cfg: {NO_FILE}"),
        ("train", {"samples": [{"id": "a", "label": 0}], **TRAIN}, {"train.cfg": ""},
         f"features/a.pgt: {NO_FILE}"),
        ("eval", {"samples": [{"id": "a", "label": 0}]}, {}, f"features/a.pgt: {NO_FILE}"),
        ("reassign", {"samples": [FILES], **ROSTER}, {"samples/a.jsonl": b"\xff\n"},
         "samples/a.jsonl: not UTF-8 (byte 0: invalid start byte)"),
        ("train", {"samples": [{"id": "a", "label": 0}], **TRAIN}, {"train.cfg": b"seed = 0\xe9\n"},
         "train.cfg: not UTF-8 (byte 8: invalid continuation byte)"),
        ("features", None, {}, "manifest.json: cannot read (Is a directory)"),
        ("reassign", {"samples": [FILES], **ROSTER},
         {"samples/a.jsonl": json.dumps(DETECTION).replace('"t": 0', '"t": 1e400'), **TRUTH},
         "samples/a.jsonl: line 1: malformed record (cannot convert float infinity to integer)"),
        ("reassign", {"samples": [FILES], **ROSTER},
         {"samples/a.jsonl": json.dumps(DETECTION).replace('"id": 0', '"id": Infinity'), **TRUTH},
         "samples/a.jsonl: line 1: malformed record (cannot convert float infinity to integer)"),
        ("reassign", {"samples": [FILES], **ROSTER},
         {"samples/a.jsonl": json.dumps(DETECTION) + "\n" + json.dumps(
             {**DETECTION, "t": 1, "bbox": [1e200, 0, 1, 1]}), **TRUTH},
         "samples/a.jsonl: track 0: trajectory spread is not finite"),
        ("reassign", {"samples": [FILES], **ROSTER},
         {"samples/a.jsonl": json.dumps(DETECTION), "truth/a.pgt": {"clean": np.ones(1)}},
         "truth/a.pgt: lacks entry 'objects'"),
        ("features", {"samples": [{"id": "a"}], **GRAPH}, {"tensors/a.pgt": {"objects": np.zeros(1)}},
         "tensors/a.pgt: lacks entry 'skeleton'"),
        ("train", {"samples": [{"id": "a", "label": 0}], **TRAIN},
         {"train.cfg": "", "features/a.pgt": {k: np.zeros((4, 8, 6)) for k in STREAM_ORDER[:3]}},
         "features/a.pgt: lacks entry 'bone_motion'"),
        ("reassign", {"samples": [], "num_joints": 2, "num_persons": 2}, {},
         "manifest.json: lacks key 'num_frames'"),
        ("reassign", {"samples": [FILES], **ROSTER},
         {"samples/a.jsonl": json.dumps({**DETECTION, "t": 2}), **TRUTH},
         "samples/a.jsonl: frame 2 outside a clip of 2 frames"),
        ("features", {"samples": [{"id": "a"}], **GRAPH},
         {"tensors/a.pgt": {"skeleton": np.full((4, 2, 4, 3), np.nan)}},
         "tensors/a.pgt: entry 'skeleton' is not finite"),
        ("train", {"samples": [{"id": "a", "label": 0}], **TRAIN},
         {"train.cfg": "", "features/a.pgt": {
             k: np.pad(np.full((1, 1, 1), 1e200), ((0, 3), (0, 7), (0, 5))) for k in STREAM_ORDER}},
         "error: stream 'joint': mean or std over the training split is not finite"),
        ("eval", {"samples": [{"id": "a", "label": 0}]},
         {"features/a.pgt": {k: np.full((4, 8, 6), np.nan) for k in STREAM_ORDER}},
         "features/a.pgt: entry 'joint' is not finite"),
        ("reassign", {"samples": [FILES], **ROSTER},
         {"samples/a.jsonl": json.dumps(DETECTION), "truth/a.pgt": {"objects": np.full((2, 1, 3), np.nan)}},
         "truth/a.pgt: entry 'objects' is not finite"),
        ("features", {"samples": [{"id": "a"}], **GRAPH},
         {"tensors/a.pgt": {"skeleton": np.pad(np.full((1, 1, 1, 1), 1e200), ((0, 3), (0, 1), (1, 2), (0, 2)))}},
         "tensors/a.pgt: a bone length is not finite"),
        ("train", {"samples": [{"id": "a", "label": 0}, {"id": "b", "label": 1}], **TRAIN},
         {"train.cfg": "", "features/a.pgt": {k: np.zeros((4, 8, 6)) for k in STREAM_ORDER},
          "features/b.pgt": {k: np.zeros((4, 8, 4)) for k in STREAM_ORDER}},
         "features/b.pgt: stream 'joint' has shape (4, 8, 4), the first sample's streams (4, 8, 6)"),
        ("eval", {"samples": [{"id": "a", "label": 0}, {"id": "b", "label": 1}]},
         {"features/a.pgt": {k: np.zeros((4, 8, 6)) for k in STREAM_ORDER},
          "features/b.pgt": {**{k: np.zeros((4, 8, 6)) for k in STREAM_ORDER}, "bone": np.zeros((4, 8, 4))}},
         "features/b.pgt: stream 'bone' has shape (4, 8, 4), the first sample's streams (4, 8, 6)"),
        ("train", {"samples": [{"id": "a", "label": 0}], **TRAIN},
         {"train.cfg": "", "features/a.pgt": {k: np.zeros((4, 8 * 6)) for k in STREAM_ORDER}},
         "features/a.pgt: stream 'joint' has shape (4, 48), expected (frames, nodes, channels)"),
        ("train", {"samples": [{"id": "a", "label": 0}], **TRAIN},
         {"train.cfg": "", "features/a.pgt": {k: np.zeros((4, 6, 6)) for k in STREAM_ORDER}},
         "error: stream 'joint' has shape (4, 6, 6), the model takes (frames, 8, 6)"),
    ], ids=["features-layout", "reassign-jsonl", "reassign-persons", "features-sample-type",
            "train-classes", "eval-label", "features-persons-str", "train-classes-bool",
            "eval-label-float", "reassign-id-int", "reassign-jsonl-file", "reassign-truth-file",
            "features-tensor-file", "train-config-file", "train-feature-file",
            "eval-feature-file", "reassign-jsonl-utf8", "train-config-utf8",
            "features-manifest-dir", "reassign-t-overflow", "reassign-id-infinity",
            "reassign-spread-overflow", "reassign-truth-entry", "features-tensor-entry",
            "train-feature-entry", "reassign-frames", "reassign-frame-index",
            "features-tensor-nan", "train-stats-overflow", "eval-feature-nan", "reassign-truth-nan",
            "features-bone-overflow", "train-stream-shapes", "eval-stream-shapes",
            "train-stream-rank", "train-stream-nodes"])
    def test_manifest_missing_key_exits_1(self, tmp_path, capsys, command, manifest, files, error):
        """Each command checks the manifest keys it reads and their types before reading
        them, and a file it cannot read or decode names its path: exit 1 and one error
        line. A manifest of None makes ``manifest.json`` a directory; a file given as a
        dict is a tensor container. An error that names no file is the whole line."""
        if manifest is None:
            (tmp_path / "manifest.json").mkdir()
        else:
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        for name, content in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            if isinstance(content, dict):
                data_io.write_tensor_container(str(tmp_path / name), content)
            else:
                (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
        extra = {"train": ["--config", str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run")],
                 "eval": ["--ckpt", str(tmp_path / "none.pgt")]}.get(command, [])
        assert cli.main([command, "--data", str(tmp_path)] + extra) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [error if error.startswith("error: ") else f"error: {tmp_path}/{error}"]

    def test_coordinate_near_1e200_stops_features(self, tmp_path, capsys):
        """A slot coordinate of 1e200 is finite, but the square in its bone's length
        overflows: features stops on that tensor file and writes no feature file."""
        data = str(tmp_path / "data")
        assert cli.main(["synth", "--classes", "2", "--per-class", "2", "--persons", "2",
                         "--joints", "3", "--frames", "4", "--out", data]) == 0
        assert cli.main(["reassign", "--data", data]) == 0
        path = os.path.join(data, "tensors", "s0000.pgt")
        tensor = data_io.read_tensor_container(path)["skeleton"]
        tensor[0, 0, 0, 0] = 1e200
        data_io.write_tensor_container(path, {"skeleton": tensor})
        capsys.readouterr()
        assert cli.main(["features", "--data", data]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: a bone length is not finite"]
        assert not os.path.exists(os.path.join(data, "features", "s0000.pgt"))

    def test_high_dropout_keeps_every_frame(self, tmp_path):
        """Frames without a detection stay in the clip: at dropout 0.9, reassign and
        features write 8-frame tensors."""
        data = str(tmp_path / "data")
        assert cli.main(["synth", "--classes", "2", "--per-class", "2", "--persons", "2",
                         "--joints", "3", "--frames", "8", "--distractors", "0",
                         "--dropout", "0.9", "--out", data]) == 0
        assert cli.main(["reassign", "--data", data]) == 0
        assert cli.main(["features", "--data", data]) == 0
        for entry in data_io.load_manifest(data)["samples"]:
            x = data_io.read_tensor_container(os.path.join(data, "tensors", entry["id"] + ".pgt"))
            assert x["skeleton"].shape == (8, 2, 4, 3)
            streams = data_io.read_tensor_container(
                os.path.join(data, "features", entry["id"] + ".pgt"))
            assert all(s.shape == (8, 8, 6) and np.isfinite(s).all() for s in streams.values())

    def test_non_finite_record_exits_1(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        assert cli.main(["synth", "--classes", "2", "--per-class", "1", "--persons", "2",
                         "--joints", "3", "--frames", "4", "--out", data]) == 0
        path = os.path.join(data, data_io.load_manifest(data)["samples"][0]["jsonl"])
        lines = open(path).read().splitlines()
        rec = json.loads(lines[0])
        rec["conf"] = float("nan")
        open(path, "w").write("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert cli.main(["reassign", "--data", data]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 1: non-finite value in 'conf'" in err
        assert "Traceback" not in err


class TestFeatures:
    def test_stream_cache(self, pipeline):
        _, data, _ = pipeline
        manifest = data_io.load_manifest(data)
        first = manifest["samples"][0]["id"]
        streams = data_io.read_tensor_container(os.path.join(data, "features", first + ".pgt"))
        assert set(streams) == {"joint", "bone", "joint_motion", "bone_motion"}
        for s in streams.values():
            assert s.shape == (8, 8, 6)

    @pytest.mark.parametrize("dims", [3, 2])
    def test_writes_the_library_streams(self, tmp_path, dims):
        data = str(tmp_path / "data")
        assert cli.main(["synth", "--classes", "2", "--per-class", "2", "--persons", "2",
                         "--joints", "3", "--objects", "1", "--frames", "6", "--seed", "2",
                         "--out", data]) == 0
        assert cli.main(["reassign", "--data", data]) == 0
        assert cli.main(["features", "--data", data, "--dims", str(dims)]) == 0
        topo = graph.build_topology("chain", 2, 3, 1)
        samples = data_io.load_manifest(data)["samples"]
        assert sorted(os.listdir(os.path.join(data, "features"))) == sorted(
            e["id"] + ".pgt" for e in samples)
        for entry in samples:
            x = data_io.read_tensor_container(os.path.join(data, "tensors", entry["id"] + ".pgt"))
            want = features.build_feature_bundle(x["skeleton"][..., :dims], topo).streams()
            got = data_io.read_tensor_container(os.path.join(data, "features", entry["id"] + ".pgt"))
            assert list(got) == list(want)
            for key, stream in want.items():
                assert stream.shape[-1] == 2 * dims
                assert np.array_equal(got[key], stream)


class TestTrain:
    def test_artifacts(self, pipeline):
        _, _, out = pipeline
        assert os.path.exists(os.path.join(out, "ckpt_final.pgt"))
        assert not os.path.exists(os.path.join(out, "ckpt_final.pgt.json"))
        assert os.path.exists(os.path.join(out, "ckpt_best.pgt"))
        records = [json.loads(l) for l in open(os.path.join(out, "metrics.jsonl"))]
        assert len(records) == 3
        assert all(np.isfinite(r["train_loss"]) for r in records)

    def test_config_naming_every_train_field(self, pipeline, tmp_path):
        _, data, _ = pipeline
        values = {"epochs": 2, "warmup_epochs": 1, "base_lr": 0.01, "momentum": 0.8,
                  "weight_decay": 1e-4, "batch_size": 4, "seed": 3}
        assert set(values) == {f.name for f in dataclasses.fields(train.TrainConfig)}
        cfg = tmp_path / "full.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()) + "channel_divisor = 8\n")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--data", data, "--out", str(out)]) == 0
        records = [json.loads(l) for l in open(out / "metrics.jsonl")]
        expected = train.TrainConfig(**values)
        assert [r["lr"] for r in records] == [train.lr_at(e, expected) for e in range(2)]

    def config_error(self, pipeline, tmp_path, capsys, text):
        """Train with config ``text``: exit 1 before any epoch, with one error line."""
        _, data, _ = pipeline
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli.main(["train", "--config", str(cfg), "--data", data,
                         "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert '"epoch"' not in out
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        return errors[0]

    @pytest.mark.parametrize("line, named", [
        ("batch_size = 0", "batch_size must be >= 1, got 0"),
        ("batch_size = -1", "batch_size must be >= 1, got -1"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("base_lr = nan", "base_lr must be finite and > 0, got nan"),
        ("base_lr = inf", "base_lr must be finite and > 0, got inf"),
        ("momentum = nan", "momentum must be in [0, 1), got nan"),
        ("momentum = 1", "momentum must be in [0, 1), got 1.0"),
        ("momentum = -0.1", "momentum must be in [0, 1), got -0.1"),
        ("weight_decay = -0.001", "weight_decay must be finite and >= 0, got -0.001"),
        ("weight_decay = nan", "weight_decay must be finite and >= 0, got nan"),
        ("channel_divisor = 0", "channel_divisor must be >= 1, got 0"),
    ])
    def test_bad_config_value_exits_1(self, pipeline, tmp_path, capsys, line, named):
        key = line.split()[0]
        kept = [kept for kept in TRAIN_CONFIG.splitlines() if not kept.startswith(key + " ")]
        text = "\n".join(kept + [line]) + "\n"
        assert self.config_error(pipeline, tmp_path, capsys, text) == f"error: {named}"

    def test_repeated_config_key_exits_1(self, pipeline, tmp_path, capsys):
        assert TRAIN_CONFIG.splitlines()[1] == "epochs = 3"
        text = TRAIN_CONFIG.replace("epochs = 3\n", "epochs = 2\nepochs = 3\n")
        assert self.config_error(pipeline, tmp_path, capsys, text) == (
            "error: config line 3: key 'epochs' already set on line 2")

    def test_unwritable_out_exits_1(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN_CONFIG)
        out = cfg / "run"  # below a file: the directory cannot be made
        assert cli.main(["train", "--config", str(cfg), "--data", data, "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and line.endswith(f"Not a directory: '{out}'")

    def test_unknown_config_key_exits_1(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        assert cli.main(["train", "--config", str(cfg), "--data", data,
                         "--out", str(tmp_path / "out")]) == 1
        assert "unknown key" in capsys.readouterr().err


class TestEval:
    def test_single_checkpoint(self, pipeline, capsys):
        _, data, out = pipeline
        ckpt = os.path.join(out, "ckpt_final.pgt")
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data]) == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result) == {"mca", "mpca", "confusion", "val"}
        assert 0.0 <= result["mca"] <= 1.0

    def test_fused_self_eval_matches_single(self, pipeline, capsys):
        _, data, out = pipeline
        ckpt = os.path.join(out, "ckpt_final.pgt")
        cli.main(["eval", "--ckpt", ckpt, "--data", data])
        single = json.loads(capsys.readouterr().out)
        cli.main(["eval", "--ckpt", ckpt, "--ckpt", ckpt, "--fuse", "--data", data])
        fused = json.loads(capsys.readouterr().out)
        assert single == fused

    @staticmethod
    def copy_with_config(out, ckpt, edit):
        """Copy the pipeline's final checkpoint to ``ckpt`` with ``edit`` applied to the
        JSON text of its config entry; an ``edit`` returning None drops the entry."""
        tensors = data_io.read_tensor_container(os.path.join(out, "ckpt_final.pgt"))
        text = edit(tensors.pop("config").tobytes().decode())
        if text is not None:
            tensors["config"] = np.frombuffer(text.encode(), dtype=np.uint8)
        data_io.write_tensor_container(ckpt, tensors)

    @pytest.mark.parametrize("damage", ["missing", "truncated", "array"])
    def test_broken_checkpoint_config_exits_1(self, pipeline, tmp_path, capsys, damage):
        _, data, out = pipeline
        ckpt = str(tmp_path / "ckpt.pgt")
        edits = {"missing": lambda text: None, "truncated": lambda text: text[:40],
                 "array": lambda text: "[]"}  # valid JSON, not an object
        self.copy_with_config(out, ckpt, edits[damage])
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and "config" in err and "Traceback" not in err

    def test_mistyped_checkpoint_config_exits_1(self, pipeline, tmp_path, capsys):
        _, data, out = pipeline
        ckpt = str(tmp_path / "ckpt.pgt")
        self.copy_with_config(out, ckpt, lambda text: json.dumps({**json.loads(text), "num_persons": "2"}))
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {ckpt}: config: num_persons must be int, got '2'"]

    @pytest.mark.parametrize("damage", ["nan", "shape", "zero-std"])
    def test_damaged_checkpoint_tensor_exits_1(self, pipeline, tmp_path, capsys, damage):
        """A NaN weight, the 32-byte container whose one entry numpy cannot shape, or a
        normalisation std of 0 (it would divide a stream by zero)."""
        _, data, out = pipeline
        ckpt = str(tmp_path / "ckpt.pgt")
        if damage != "shape":
            tensors = data_io.read_tensor_container(os.path.join(out, "ckpt_final.pgt"))
            name = "param.branch0.block0.sgc.W0" if damage == "nan" else "norm.joint.std"
            tensors[name].flat[0] = np.nan if damage == "nan" else 0.0
            data_io.write_tensor_container(ckpt, tensors)
            expected = f"entry {name!r} is " + ("not finite" if damage == "nan" else "not > 0")
        else:
            entry = struct.pack("<H8sBB3I", 8, b"skeleton", 1, 3, 0, 2**32 - 1, 2**32 - 1)
            open(ckpt, "wb").write(b"PGT1" + struct.pack("<I", 1) + entry)
            expected = "entry 'skeleton' has shape (0, 4294967295, 4294967295)"
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {ckpt}: {expected}")

    @pytest.mark.parametrize("case", ["joint-1e300", "max-float", "inf-logits"])
    def test_extreme_values_exit_1(self, pipeline, tmp_path, capsys, case):
        """A joint entry of 1e300 in every feature file, entries of +-1.5e308 in joint and
        bone, or classifier weights of 1e308 that overflow the logits: one error line, and
        no RuntimeWarning on the way."""
        _, data, out = pipeline
        ckpt = os.path.join(out, "ckpt_final.pgt")
        if case == "inf-logits":
            ckpt = str(tmp_path / "ckpt.pgt")
            tensors = data_io.read_tensor_container(os.path.join(out, "ckpt_final.pgt"))
            tensors["param.classifier.w"][:] = 1e308
            data_io.write_tensor_container(ckpt, tensors)
            expected = "error: sample 0: logits are not finite"
        else:
            data = shutil.copytree(data, str(tmp_path / "data"))
            for name in os.listdir(os.path.join(data, "features")):
                path = os.path.join(data, "features", name)
                streams = data_io.read_tensor_container(path)
                if case == "joint-1e300":
                    streams["joint"][0, 0, 0] = 1e300
                else:
                    for key in ("joint", "bone"):
                        streams[key][0, 0, :2] = 1.5e308, -1.5e308
                data_io.write_tensor_container(path, streams)
            expected = "error: sample 0: stream 'joint': normalised value "
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["eval", "--ckpt", ckpt, "--data", data]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(expected)

    def test_features_of_other_dims_exit_1(self, pipeline, tmp_path, capsys):
        """Features cached with --dims 2 do not fit a checkpoint trained on --dims 3."""
        root, data, out = pipeline
        data2 = str(tmp_path / "data2")
        shutil.copytree(data, data2)
        assert cli.main(["features", "--data", data2, "--dims", "2"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", os.path.join(out, "ckpt_final.pgt"), "--data", data2]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: stream 'joint' has shape (8, 8, 4), the model takes (frames, 8, 6)"]

    def test_val_scores_validation_split(self, pipeline, tmp_path, capsys):
        """A 32-clip set of the pipeline's shape: the top level scores every clip, val only the validation clips."""
        _, _, out = pipeline
        data = str(tmp_path / "data32")
        assert cli.main([
            "synth", "--classes", "2", "--per-class", "16", "--persons", "2",
            "--joints", "3", "--objects", "1", "--frames", "8", "--seed", "2",
            "--out", data,
        ]) == 0
        assert cli.main(["reassign", "--data", data]) == 0
        assert cli.main(["features", "--data", data]) == 0
        capsys.readouterr()
        n_val = sum(train.is_validation_index(i) for i in range(32))
        ckpt = os.path.join(out, "ckpt_final.pgt")
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data]) == 0
        result = json.loads(capsys.readouterr().out)
        assert np.sum(result["confusion"]) == 32
        assert set(result["val"]) == {"mca", "mpca", "confusion"}
        assert np.sum(result["val"]["confusion"]) == n_val == 6

    def test_two_checkpoints_without_fuse_exits_1(self, pipeline, capsys):
        _, data, out = pipeline
        ckpt = os.path.join(out, "ckpt_final.pgt")
        assert cli.main(["eval", "--ckpt", ckpt, "--ckpt", ckpt, "--data", data]) == 1
        assert capsys.readouterr().err == "error: multiple checkpoints require --fuse\n"

    def test_fuse_rule_checked_before_any_file_is_read(self, tmp_path, capsys):
        missing = [str(tmp_path / name) for name in ("a.pgt", "b.pgt", "data")]
        assert cli.main(["eval", "--ckpt", missing[0], "--ckpt", missing[1], "--data", missing[2]]) == 1
        assert capsys.readouterr().err == "error: multiple checkpoints require --fuse\n"


class TestGradcheck:
    """The command's report and exit code, over a stub suite (criterion 1 runs the real one)."""

    @staticmethod
    def stub(monkeypatch, worst):
        calls = []

        def run_full_suite(seed, thorough, coverage):
            calls.append((seed, thorough))
            coverage.checks, coverage.floored = 5, 2
            return {"sgc": worst / 2, "model": worst}, worst

        monkeypatch.setattr(gradcheck, "run_full_suite", run_full_suite)
        return calls

    def test_passing_suite_exits_0(self, monkeypatch, capsys):
        calls = self.stub(monkeypatch, 2e-6)
        assert cli.main(["gradcheck", "--seed", "4", "--seeds", "2"]) == 0
        assert calls == [(4, True), (5, False)]
        out = capsys.readouterr().out.splitlines()
        floored = f"2 of 5 checks floored (|FD| and |analytic| both <= {gradcheck.ABS_FLOOR:.0e})"
        assert [line for line in out if "floored" in line] == [f"seed {s}  {floored}" for s in (4, 5)]
        assert out[-2:] == ["overall max rel err 2.000e-06 (tolerance 1e-04)", "gradcheck passed"]

    def test_failing_suite_exits_1(self, monkeypatch, capsys):
        self.stub(monkeypatch, 1e-3)
        assert cli.main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "overall max rel err 1.000e-03 (tolerance 1e-04)"
        assert "gradcheck passed" not in captured.out
        assert captured.err == "gradcheck FAILED\n"


FUZZ_CONFIG = "epochs = 1\nwarmup_epochs = 0\nbase_lr = 0.002\nbatch_size = 4\nchannel_divisor = 8\n"


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A 4-clip desk dataset of 4 frames through reassign and features, a training
    config, and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("fuzz_base")
    data = str(root / "data")
    assert cli.main(["synth", "--classes", "2", "--per-class", "2", "--persons", "2",
                     "--joints", "3", "--frames", "4", "--out", data]) == 0
    assert cli.main(["reassign", "--data", data]) == 0
    assert cli.main(["features", "--data", data]) == 0
    (root / "train.cfg").write_text(FUZZ_CONFIG)
    assert cli.main(["train", "--config", str(root / "train.cfg"), "--data", data,
                     "--out", str(root / "run")]) == 0
    return root


def mutate(raw: bytes, rng: np.random.Generator) -> bytes:
    """One byte flipped, inserted or deleted at a random position."""
    pos, op = int(rng.integers(0, len(raw))), int(rng.integers(0, 3))
    if op == 0:
        return raw[:pos] + bytes([raw[pos] ^ int(rng.integers(1, 256))]) + raw[pos + 1:]
    if op == 1:
        return raw[:pos] + bytes([int(rng.integers(0, 256))]) + raw[pos:]
    return raw[:pos] + raw[pos + 1:]


FUZZ_TARGETS = {  # mutated file -> seed, stages run on it in pipeline order
    "data/samples/s0000.jsonl": (1, ["reassign"]),
    "data/manifest.json": (2, ["reassign", "features", "train", "eval"]),
    "train.cfg": (3, ["train"]),
    "data/truth/s0000.pgt": (4, ["reassign"]),
    "data/tensors/s0000.pgt": (5, ["features"]),
    "data/features/s0000.pgt": (6, ["train", "eval"]),
    "run/ckpt_final.pgt": (7, ["eval"]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target", list(FUZZ_TARGETS))
def test_byte_mutation_exits_0_or_1(fuzz_base, tmp_path, capsys, target):
    """Seeded one-byte mutations of a file from outside: every stage that reads it
    exits 0, or exits 1 with exactly one ``error:`` line on stderr, and warns nothing
    (a RuntimeWarning is an error)."""
    seed, stages = FUZZ_TARGETS[target]
    rng = np.random.default_rng(seed)
    capsys.readouterr()
    for case in range(100):
        work = tmp_path / str(case)
        shutil.copytree(fuzz_base, work)
        mutated = mutate((work / target).read_bytes(), rng)
        (work / target).write_bytes(mutated)
        argv = {"train": ["--config", str(work / "train.cfg"), "--out", str(work / "run")],
                "eval": ["--ckpt", str(work / "run" / "ckpt_final.pgt")]}
        for stage in stages:
            code = cli.main([stage, "--data", str(work / "data")] + argv.get(stage, []))
            err = capsys.readouterr().err
            what = f"case {case} {stage}: {mutated!r}"
            assert code in (0, 1), what
            if code == 1:
                assert len(err.splitlines()) == 1 and err.startswith("error:"), f"{what}\n{err}"
                break
        shutil.rmtree(work)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(persons=st.integers(1, 4), joints=st.integers(1, 6), objects=st.integers(0, 2),
       frames=st.integers(1, 12), dropout=st.floats(0, 1), id_switch=st.floats(0, 0.5),
       distractors=st.integers(0, 3), jitter=st.floats(0, 0.3))
def test_ingest_takes_any_synthetic_spec(persons, joints, objects, frames, dropout, id_switch,
                                         distractors, jitter):
    """synth -> reassign -> features exits 0 over the spec space, dropout 1 included: every
    slot tensor has the manifest's frames and every stream is finite, of its shape."""
    with tempfile.TemporaryDirectory() as root:
        data = os.path.join(root, "data")
        argv = ["synth", "--classes", "2", "--per-class", "1", "--persons", str(persons),
                "--joints", str(joints), "--objects", str(objects), "--frames", str(frames),
                "--dropout", repr(dropout), "--id-switch", repr(id_switch),
                "--distractors", str(distractors), "--conf-jitter", repr(jitter), "--out", data]
        assert cli.main(argv) == 0
        assert cli.main(["reassign", "--data", data]) == 0
        assert cli.main(["features", "--data", data]) == 0
        nodes = joints + objects
        for entry in data_io.load_manifest(data)["samples"]:
            x = data_io.read_tensor_container(os.path.join(data, "tensors", entry["id"] + ".pgt"))
            assert x["skeleton"].shape == (frames, persons, nodes, 3)
            streams = data_io.read_tensor_container(
                os.path.join(data, "features", entry["id"] + ".pgt"))
            for stream in streams.values():
                assert stream.shape == (frames, persons * nodes, 6) and np.isfinite(stream).all()


EXTREME_CONFIG = "epochs = 2\nwarmup_epochs = 1\nbase_lr = 0.01\nbatch_size = 4\nchannel_divisor = 8\n"
EXTREME_VALUES = (1e300, -1e300, np.finfo(float).max, -np.finfo(float).max, 5e-324, -0.0, 1e154)
# where one extreme value goes -> the stages that read it, in pipeline order
EXTREME_TARGETS = {
    "kpts_x": ["reassign", "features", "train", "eval"],
    "kpts_visibility": ["reassign", "features", "train", "eval"],
    "bbox": ["reassign", "features", "train", "eval"],
    "conf": ["reassign", "features", "train", "eval"],
    "slot_tensor": ["features", "train", "eval"],
    "feature_file": ["train", "eval"],
    "param": ["eval"],
    "running_var": ["eval"],
    "norm_mean": ["eval"],
}
STAGE_OUTPUTS = {"reassign": "data/tensors", "features": "data/features", "train": "run"}


@pytest.fixture(scope="module")
def extreme_base(tmp_path_factory):
    """Six clips of 2 persons, 3 joints and 8 frames through reassign and features, and a
    checkpoint trained on them for 2 epochs at channel divisor 8."""
    root = tmp_path_factory.mktemp("extreme_base")
    data = str(root / "data")
    assert cli.main(["synth", "--classes", "2", "--per-class", "3", "--persons", "2",
                     "--joints", "3", "--frames", "8", "--out", data]) == 0
    assert cli.main(["reassign", "--data", data]) == 0
    assert cli.main(["features", "--data", data]) == 0
    (root / "train.cfg").write_text(EXTREME_CONFIG)
    assert cli.main(["train", "--config", str(root / "train.cfg"), "--data", data,
                     "--out", str(root / "run")]) == 0
    return str(root)


def plant_extreme(work: str, target: str, value: float, clip: int, pos: int) -> None:
    """Write ``value`` into one entry of one file of the copy at ``work``."""
    if target in ("kpts_x", "kpts_visibility", "bbox", "conf"):
        path = os.path.join(work, "data", "samples", f"s{clip:04d}.jsonl")
        records = [json.loads(line) for line in open(path)]
        rec = records[pos % len(records)]
        if target == "conf":
            rec["conf"] = value
        elif target == "bbox":
            rec["bbox"][pos % 4] = value
        else:
            rec["kpts"][pos % len(rec["kpts"])][0 if target == "kpts_x" else 2] = value
        with open(path, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        return
    if target in ("slot_tensor", "feature_file"):
        path = os.path.join(work, "data", "tensors" if target == "slot_tensor" else "features",
                            f"s{clip:04d}.pgt")
    else:
        path = os.path.join(work, "run", "ckpt_final.pgt")
    tensors = data_io.read_tensor_container(path)
    if target == "slot_tensor":
        names = ["skeleton"]
    elif target == "feature_file":
        names = list(STREAM_ORDER)
    else:
        prefix, suffix = {"param": ("param.", ""), "running_var": ("buffer.", ".running_var"),
                          "norm_mean": ("norm.", ".mean")}[target]
        names = sorted(n for n in tensors if n.startswith(prefix) and n.endswith(suffix))
    x = tensors[names[pos % len(names)]]
    x.flat[(pos // len(names)) % x.size] = value
    data_io.write_tensor_container(path, tensors)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target", list(EXTREME_TARGETS))
@settings(max_examples=7, deadline=None, derandomize=True)  # 9 x 7 cases in about 6 s
@given(value=st.sampled_from(EXTREME_VALUES), clip=st.integers(0, 5), pos=st.integers(0, 2**20))
def test_extreme_finite_value_exits_0_or_1(extreme_base, target, value, clip, pos):
    """One extreme but finite value in one entry of a detection record, slot tensor, feature
    file or checkpoint tensor: each stage that reads it exits 0 with every tensor file it
    wrote readable (the reader refuses NaN and inf), or exits 1 with exactly one ``error:``
    line; a RuntimeWarning on the way is an error."""
    with tempfile.TemporaryDirectory() as tmp:
        work = shutil.copytree(extreme_base, os.path.join(tmp, "work"))
        plant_extreme(work, target, value, clip, pos)
        argv = {"train": ["--config", os.path.join(work, "train.cfg"), "--out", os.path.join(work, "run")],
                "eval": ["--ckpt", os.path.join(work, "run", "ckpt_final.pgt")]}
        for stage in EXTREME_TARGETS[target]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([stage, "--data", os.path.join(work, "data")] + argv.get(stage, []))
            what = f"{target}={value!r} in clip {clip} at {pos}: {stage}"
            assert code in (0, 1), what
            if code == 1:
                assert len(err.getvalue().splitlines()) == 1, f"{what}\n{err.getvalue()}"
                assert err.getvalue().startswith("error:"), f"{what}\n{err.getvalue()}"
                break
            if stage in STAGE_OUTPUTS:
                out_dir = os.path.join(work, STAGE_OUTPUTS[stage])
                for name in os.listdir(out_dir):
                    if name.endswith(".pgt"):
                        data_io.read_tensor_container(os.path.join(out_dir, name))
