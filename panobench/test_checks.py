"""Each benchmark check passes on the program's real output and fails on a
corrupted copy of it (the negative control).

    python3 -m pytest -q panobench/test_checks.py
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from panograph import cli, data_io, features, graph, nn, reassign, train  # noqa: E402


def fails(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


# --- PGT1 -------------------------------------------------------------------

def test_pgt1_reader(tmp_path):
    path = str(tmp_path / "a.pgt")
    data_io.write_tensor_container(path, {"x": np.arange(6.0).reshape(2, 3)})
    assert np.array_equal(checks.read_pgt1(path)["x"], np.arange(6.0).reshape(2, 3))
    with open(path, "ab") as fh:
        fh.write(b"junk")
    fails(checks.read_pgt1, path)


# --- reassignment -------------------------------------------------------------

@pytest.fixture(scope="module")
def crowded_clip():
    """Three slots, five tracks a frame: confidences overlap, ids switch."""
    spec = data_io.SyntheticSpec(num_classes=1, samples_per_class=1, num_persons=3, num_joints=3,
                                 num_objects=1, num_frames=8, seed=3, num_distractors=2,
                                 distractor_conf=0.75, conf_jitter=0.1, id_switch_prob=0.1)
    sample = data_io.generate_synthetic(spec)[0]
    frames = reassign.parse_jsonl(sample.jsonl, 3)
    tensor, _ = reassign.assemble_sequence(frames, 3, 3)
    return sample.jsonl, data_io.append_object_nodes(tensor, sample.objects), sample.objects


def test_slot_tensor_accepts_program_output(crowded_clip):
    lines, tensor, objects = crowded_clip
    assert checks.check_slot_tensor(lines, tensor, objects, 3) == 8


def test_slot_tensor_rejects_swapped_slots(crowded_clip):
    lines, tensor, objects = crowded_clip
    bad = tensor.copy()
    bad[2, [0, 1]] = bad[2, [1, 0]]
    fails(checks.check_slot_tensor, lines, bad, objects, 3)


def test_slot_tensor_rejects_a_dropped_track(crowded_clip):
    lines, tensor, objects = crowded_clip
    frame0 = [np.asarray(r["kpts"]) for r in map(json.loads, lines) if r["t"] == 0]
    dropped = [k for k in frame0 if not any(np.array_equal(k, tensor[0, s, :3]) for s in range(3))]
    bad = tensor.copy()
    bad[0, 0, :3] = dropped[0]
    fails(checks.check_slot_tensor, lines, bad, objects, 3)


def test_slot_tensor_rejects_moved_objects(crowded_clip):
    lines, tensor, objects = crowded_clip
    bad = tensor.copy()
    bad[1, 2, 3, 0] += 1.0
    fails(checks.check_slot_tensor, lines, bad, objects, 3)


# --- feature streams ----------------------------------------------------------

def test_streams_match_program_without_objects():
    x = np.random.default_rng(0).standard_normal((5, 2, 4, 3))
    topo = graph.build_topology("chain", 2, 4, 0)
    program = features.build_feature_bundle(x, topo).streams()
    for name, ref in checks.restate_streams(x, 4).items():
        checks.check_stream(name, program[name], ref)
        bad = program[name].copy()
        bad[1, 3, 2] += 1e-6
        fails(checks.check_stream, name, bad, ref)


# --- training -------------------------------------------------------------------

def tiny_model(seed=0):
    topo = graph.build_topology("chain", 2, 3, 1)
    cfg = nn.ModelConfig(num_persons=2, joints_per_person=3, object_keypoints=1, num_frames=4,
                         num_classes=3).scaled(8)
    rng = np.random.default_rng(seed)
    model = nn.MPGCN(cfg, graph.partition_and_normalize(topo).A_hat, rng)
    streams = [rng.standard_normal((3, 6, 4, 8)) for _ in range(4)]
    return model, streams, np.array([0, 2, 1])


def backward(model, streams, labels):
    model.zero_grad()
    _, g = nn.cross_entropy(model.forward(streams, training=True), labels)
    model.backward(g)
    return {k: v.copy() for k, v in model.named_grads()}


def test_gradient_check():
    model, streams, labels = tiny_model()
    grads = backward(model, streams, labels)
    checks.freeze_branches(model)
    checks.check_gradient(model, streams, labels, grads, np.random.default_rng(1))
    bad = {k: -v if k == "classifier.w" else v for k, v in grads.items()}
    fails(checks.check_gradient, model, streams, labels, bad, np.random.default_rng(1))


def test_nesterov_step_check():
    model, streams, labels = tiny_model()
    grads = backward(model, streams, labels)
    cfg = train.TrainConfig(momentum=0.9, weight_decay=1e-2)
    opt = train.SGDNesterov(model, cfg)
    opt.step(model, 0.1)
    before = {k: p.copy() for k, p in model.named_parameters()}
    velocity = {k: v.copy() for k, v in opt.velocity.items()}
    opt.step(model, 0.1)
    after = {k: p.copy() for k, p in model.named_parameters()}
    checks.check_nesterov_step(before, velocity, grads, after, 0.1, 0.9, 1e-2)
    gamma = next(k for k in after if k.endswith(".gamma"))
    decayed = dict(after, **{gamma: after[gamma] - 0.1 * 1e-2 * before[gamma] * 1.9})
    fails(checks.check_nesterov_step, before, velocity, grads, decayed, 0.1, 0.9, 1e-2)
    fails(checks.check_nesterov_step, before, {k: 0 * v for k, v in velocity.items()}, grads,
          after, 0.1, 0.9, 1e-2)


def test_finite_and_loss_decrease():
    checks.check_loss_decreased([2.0, 1.5, 1.0])
    fails(checks.check_loss_decreased, [1.0, 1.5])
    fails(checks.check_finite, [1.0, float("nan")], "losses")


# --- evaluation -----------------------------------------------------------------

def test_metrics_recomputed():
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
    labels = np.array([0, 1, 1, 0])
    program = train.metrics_from_predictions(scores.argmax(axis=1), labels, 2)
    checks.check_metrics(program, scores, labels)
    fails(checks.check_metrics, dict(program, mpca=program["mpca"] + 0.1), scores, labels)


def test_softmax_rows():
    probs = nn.softmax(np.random.default_rng(0).standard_normal((4, 5)))
    checks.check_softmax_rows(probs)
    fails(checks.check_softmax_rows, probs * 1.01)


def test_batch_independence():
    model, streams, _ = tiny_model()
    backward(model, streams, np.array([0, 1, 2]))  # leaves non-trivial running stats
    one = [s[:1] for s in streams]
    checks.check_batch_independent(model.forward(streams, training=False)[:1],
                                   model.forward(one, training=False))
    # training mode normalises with batch statistics, so the batch leaks in
    fails(checks.check_batch_independent, model.forward(streams, training=True)[:1],
          model.forward(one, training=True))


# --- tracing ----------------------------------------------------------------------

def test_tracer_patches_bound_names_and_restores_them():
    original = reassign.parse_jsonl
    assert cli.parse_jsonl is original
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.parse_jsonl is reassign.parse_jsonl is not original
        model, streams, labels = tiny_model()
        tracer.enabled = True
        backward(model, streams, labels)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert cli.parse_jsonl is reassign.parse_jsonl is original
    names = {s[0] for s in tracer.spans}
    assert {"nn.layers.SpatialGraphConv.forward", "nn.layers.BatchNorm.backward",
            "nn.model.MPGCN.backward"} <= names
    layer = spans.layer_metrics(tracer.spans, {"clips": 0, "steps": 1, "features_workers": 1}, 0)
    assert 0.5 < layer["nn.model.leaf_share"][0] <= 1.0
    assert layer["nn.layers.SpatialGraphConv.gflop"][0] > 0
