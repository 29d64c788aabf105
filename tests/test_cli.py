"""CLI pipeline tests (in-process via cli.main)."""
import json
import os

import numpy as np
import pytest

from panograph import cli, data_io
from panograph.errors import ConfigError


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

    def test_missing_manifest_exits_1(self, tmp_path, capsys):
        assert cli.main(["reassign", "--data", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

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

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("PANOGRAPH_THREADS", "2")
        assert cli._worker_count() == 2
        monkeypatch.setenv("PANOGRAPH_THREADS", "")
        assert cli._worker_count() >= 1

    @pytest.mark.parametrize("value", ["abc", "zero", "0", "-2", "1.5"])
    def test_thread_cap_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("PANOGRAPH_THREADS", value)
        with pytest.raises(ConfigError, match="PANOGRAPH_THREADS"):
            cli._worker_count()


class TestTrain:
    def test_artifacts(self, pipeline):
        _, _, out = pipeline
        assert os.path.exists(os.path.join(out, "ckpt_final.pgt"))
        assert os.path.exists(os.path.join(out, "ckpt_final.pgt.json"))
        assert os.path.exists(os.path.join(out, "ckpt_best.pgt"))
        records = [json.loads(l) for l in open(os.path.join(out, "metrics.jsonl"))]
        assert len(records) == 3
        assert all(np.isfinite(r["train_loss"]) for r in records)

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
        assert set(result) == {"mca", "mpca", "confusion"}
        assert 0.0 <= result["mca"] <= 1.0

    def test_fused_self_eval_matches_single(self, pipeline, capsys):
        _, data, out = pipeline
        ckpt = os.path.join(out, "ckpt_final.pgt")
        cli.main(["eval", "--ckpt", ckpt, "--data", data])
        single = json.loads(capsys.readouterr().out)
        cli.main(["eval", "--ckpt", ckpt, "--ckpt", ckpt, "--fuse", "--data", data])
        fused = json.loads(capsys.readouterr().out)
        assert single == fused

    def test_two_checkpoints_without_fuse_exits_1(self, pipeline, capsys):
        _, data, out = pipeline
        ckpt = os.path.join(out, "ckpt_final.pgt")
        assert cli.main(["eval", "--ckpt", ckpt, "--ckpt", ckpt, "--data", data]) == 1
        assert "fuse" in capsys.readouterr().err
