"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is verified against independent oracles (re-stated here, not
imported from the library) at its stated tolerance.
"""
import json
import math
import os
import time

import numpy as np
import pytest

from panograph import cli, data_io, features, gradcheck, graph, reassign, train
from panograph.nn import MPGCN, ModelConfig, cross_entropy


def announce(capsys, ok, num, text):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_gradient_suite(capsys):
    start = time.time()
    worst = 0.0
    coverage = gradcheck.Coverage()
    for seed in range(10):
        _, seed_worst = gradcheck.run_full_suite(seed, thorough=(seed == 0), coverage=coverage)
        worst = max(worst, seed_worst)
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 60.0
    announce(
        capsys, ok, 1,
        f"gradient suite max rel err {worst:.2e} (<1e-4) over 10 seeds in {elapsed:.1f}s (<60s); "
        f"{coverage.floored} of {coverage.checks} checks floored "
        f"(|FD| and |analytic| both <= {gradcheck.ABS_FLOOR:.0e})",
    )


def test_criterion_2_adjacency_invariants(capsys):
    def oracle(edges, n):
        A = np.zeros((n, n))
        for i, j in edges:
            A[i, j] = A[j, i] = 1.0
        deg = A.sum(axis=1)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if A[i, j] and deg[i] > 0 and deg[j] > 0:
                    out[i, j] = A[i, j] / math.sqrt(deg[i] * deg[j])
        return out

    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(200):
        M = int(rng.integers(1, 5))
        V = int(rng.integers(1, 9))
        n = int(rng.integers(0, 3))
        variant = graph.INTER_VARIANTS[rng.integers(0, len(graph.INTER_VARIANTS))]
        topo = graph.build_topology("chain", M, V, n, inter_variant=variant)
        part = graph.partition_and_normalize(topo)
        N = topo.num_nodes
        worst = max(worst, np.max(np.abs(part.A_hat[0] - np.eye(N))))
        for k in range(3):
            worst = max(worst, np.max(np.abs(part.A_hat[k] - part.A_hat[k].T)))
        worst = max(worst, np.max(np.abs(part.A_hat[1] * part.A_hat[2])))
        for k, edges in ((1, topo.intra_edges), (2, topo.inter_edges)):
            worst = max(worst, np.max(np.abs(part.A_hat[k] - oracle(edges, N))))
    ok = worst < 1e-12
    announce(capsys, ok, 2, f"200 random topologies: worst invariant deviation {worst:.1e} (<1e-12)")


def test_criterion_3_reassignment_oracle(capsys):
    def brute_force(scored, M):
        ranked = sorted(scored, key=lambda p: (-p[1], p[0]))
        kept = sorted(tid for tid, _ in ranked[:M])
        slots, pending = {}, []
        for tid in kept:
            want = tid % M
            if want in slots.values():
                pending.append(tid)
            else:
                slots[tid] = want
        for tid, slot in zip(sorted(pending), sorted(set(range(M)) - set(slots.values()))):
            slots[tid] = slot
        return slots

    rng = np.random.default_rng(30)
    mismatches = 0
    for trial in range(1000):
        M = int(rng.integers(1, 5))
        m_t = int(rng.integers(1, 9))
        ids = rng.choice(40, size=m_t, replace=False)
        confs = rng.uniform(0, 1, size=m_t)
        # each track wanders for a few frames so the spreads differ
        paths = rng.uniform(-50, 50, size=(m_t, 3, 2))
        state = reassign.TrackState()
        for t in range(3):
            dets = [
                reassign.Detection(int(tid), float(c), np.zeros((2, 3)),
                                   (paths[i, t, 0], paths[i, t, 1]))
                for i, (tid, c) in enumerate(zip(ids, confs))
            ]
            state.update(reassign.PoseFrame(t, dets))
        frame = reassign.PoseFrame(2, dets)
        if trial % 2 == 0:
            got = reassign.reassign_frame(frame, state, M, score_mode="conf_only")
            scores = confs.tolist()
        else:
            got = reassign.reassign_frame(frame, state, M, score_mode="conf+activeness")
            spreads = [paths[i, :, 0].std() + paths[i, :, 1].std() for i in range(m_t)]
            exps = [math.exp(s - max(spreads)) for s in spreads]
            scores = [c + e / sum(exps) for c, e in zip(confs, exps)]
        if got != brute_force(list(zip(ids.tolist(), scores)), M):
            mismatches += 1

    spread_err = 0.0
    for _ in range(200):
        pts = rng.uniform(-1e3, 1e3, size=(int(rng.integers(1, 30)), 2))
        stats = [len(pts), pts[:, 0].sum(), pts[:, 1].sum(),
                 (pts[:, 0] ** 2).sum(), (pts[:, 1] ** 2).sum()]
        expected = pts[:, 0].std() + pts[:, 1].std()  # two-pass population std
        spread_err = max(spread_err, abs(reassign.trajectory_spread(stats) - expected))
    ok = mismatches == 0 and spread_err < 1e-9
    announce(
        capsys, ok, 3,
        f"1000 frames: {mismatches} oracle mismatches (=0); spread err {spread_err:.1e} (<1e-9)",
    )


def test_criterion_4_track_consistency(capsys):
    def seed_metric(seed, score_mode):
        spec = data_io.SyntheticSpec(
            num_classes=4, samples_per_class=3, num_persons=3, num_joints=4,
            num_objects=1, num_frames=24, noise_std=0.5, seed=seed,
            num_distractors=2, distractor_conf=0.55, player_conf=0.6,
            conf_jitter=0.15, dropout_prob=0.05, id_switch_prob=0.05,
        )
        lens = []
        for s in data_io.generate_synthetic(spec):
            frames = reassign.parse_jsonl(s.jsonl, spec.num_joints)
            _, rep = reassign.assemble_sequence(
                frames, spec.num_persons, spec.num_joints, score_mode
            )
            lens.append(np.mean(rep.slot_mean_track_len))
        return float(np.mean(lens))

    wins, diffs = 0, []
    for seed in range(20):
        full = seed_metric(seed, "conf+activeness")
        base = seed_metric(seed, "conf_only")
        wins += full >= base
        diffs.append(full - base)
    ok = wins >= 18 and np.mean(diffs) > 0
    announce(
        capsys, ok, 4,
        f"conf+activeness >= conf-only in {wins}/20 seeds (>=18); mean gain {np.mean(diffs):+.2f} frames (>0)",
    )


def test_criterion_5_parameter_counts(capsys):
    def count(M, V, n, classes):
        topo = graph.build_topology("coco17", M, V, n)
        A = graph.partition_and_normalize(topo).A_hat
        cfg = ModelConfig(M, V, n, 72, classes)
        return MPGCN(cfg, A, np.random.default_rng(0)).num_parameters()

    nba = count(12, 17, 2, 9)
    volley = count(12, 17, 0, 8)
    nba_dev = abs(nba - 4.4e6) / 4.4e6
    volley_dev = abs(volley - 3.70e6) / 3.70e6
    ok = nba_dev < 0.20 and volley_dev < 0.20
    announce(
        capsys, ok, 5,
        f"parameters NBA {nba/1e6:.2f}M vs 4.4M ({nba_dev:.0%}), "
        f"Volleyball {volley/1e6:.2f}M vs 3.70M ({volley_dev:.0%}), both <20%",
    )


def _overfit_dataset(zero_motion=False):
    spec = data_io.SyntheticSpec(
        num_classes=8, samples_per_class=8, num_persons=3, num_joints=5,
        num_objects=1, num_frames=16, noise_std=0.5, seed=0,
    )
    topo = graph.build_topology("chain", 3, 5, 1, inter_variant="pairwise")
    streams, labels = [], []
    for s in data_io.generate_synthetic(spec):
        frames = reassign.parse_jsonl(s.jsonl, 5)
        tensor, _ = reassign.assemble_sequence(frames, 3, 5)
        full = data_io.append_object_nodes(tensor, s.objects)
        bundle = features.build_feature_bundle(full, topo).streams()
        if zero_motion:
            bundle = dict(bundle)
            bundle["joint_motion"] = np.zeros_like(bundle["joint_motion"])
            bundle["bone_motion"] = np.zeros_like(bundle["bone_motion"])
        streams.append(bundle)
        labels.append(s.label)
    return train.Dataset(streams, np.array(labels))


def _overfit_run(inter_variant, zero_motion, epochs=18):
    ds = _overfit_dataset(zero_motion)
    cfg = ModelConfig(3, 5, 1, 16, 8).scaled(4)
    tc = train.TrainConfig(epochs=epochs, warmup_epochs=5, base_lr=0.05, batch_size=16, seed=0)
    graph_info = {"layout": "chain", "inter_variant": inter_variant}
    _, _, records = train.train_loop(ds, cfg, tc, graph_info, out_dir=None, use_validation=False)
    return records


def test_criterion_6_synthetic_overfit_and_ablation(capsys):
    start = time.time()
    full = _overfit_run("pairwise", zero_motion=False)
    best = max(r["train_mca"] for r in full)
    epochs_used = len(full)
    no_inter = _overfit_run("none", zero_motion=False)
    no_motion = _overfit_run("pairwise", zero_motion=True)
    elapsed = time.time() - start

    def tail(records):
        return float(np.mean([r["train_mca"] for r in records[-3:]]))

    overfit_ok = best >= 0.95 and epochs_used <= 200 and elapsed < 600
    ablation_ok = tail(full) > tail(no_inter) and tail(full) > tail(no_motion)
    ok = overfit_ok and ablation_ok
    announce(
        capsys, ok, 6,
        f"overfit MCA {best:.2f} (>=0.95) in {epochs_used} epochs (<=200), {elapsed:.0f}s (<600); "
        f"ablations: full {tail(full):.2f} > no-inter {tail(no_inter):.2f}, "
        f"> no-motion {tail(no_motion):.2f}",
    )


def test_criterion_7_schedule_and_loss_anchors(capsys):
    cfg = train.TrainConfig()
    lr_ok = train.lr_at(4, cfg) == 0.1 and train.lr_at(5, cfg) == 0.1
    loss, _ = cross_entropy(np.zeros((1, 8)), np.array([0]))
    ce_ok = abs(loss - math.log(8)) < 1e-9

    tiny = gradcheck.tiny_model_config()
    A = gradcheck.tiny_adjacency(tiny.num_persons, tiny.joints_per_person)
    model = MPGCN(tiny, A, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    streams = [
        {k: rng.standard_normal((tiny.num_frames, tiny.num_nodes, 6))
         for k in ("joint", "bone", "joint_motion", "bone_motion")}
        for _ in range(6)
    ]
    ds = train.Dataset(streams, rng.integers(0, tiny.num_classes, size=6))
    stats = train.compute_norm_stats(ds, range(6))
    single = train.evaluate(ds, [(model, stats)])
    fused = train.evaluate(ds, [(model, stats), (model, stats)], fuse=True)
    fuse_ok = (
        single["mca"] == fused["mca"]
        and single["mpca"] == fused["mpca"]
        and np.array_equal(single["confusion"], fused["confusion"])
    )
    ok = lr_ok and ce_ok and fuse_ok
    announce(
        capsys, ok, 7,
        f"lr(4)=lr(5)=0.1 ({lr_ok}); uniform CE=ln8 ({ce_ok}); fused self-eval identical ({fuse_ok})",
    )


def test_criterion_8_end_to_end_pipeline(capsys, tmp_path):
    data = str(tmp_path / "data")
    out = str(tmp_path / "run")
    codes = [
        cli.main(["synth", "--classes", "3", "--per-class", "4", "--persons", "2",
                  "--joints", "4", "--objects", "1", "--frames", "12", "--seed", "5",
                  "--out", data]),
        cli.main(["reassign", "--data", data]),
        cli.main(["features", "--data", data]),
    ]
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "epochs = 4\nwarmup_epochs = 1\nbase_lr = 0.02\nbatch_size = 4\n"
        "seed = 0\nchannel_divisor = 8\n"
    )
    codes.append(cli.main(["train", "--config", str(cfg), "--data", data, "--out", out]))
    codes.append(cli.main(["eval", "--ckpt", os.path.join(out, "ckpt_final.pgt"),
                           "--data", data]))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    metrics = [json.loads(l) for l in open(os.path.join(out, "metrics.jsonl"))]
    ok = (
        codes == [0, 0, 0, 0, 0]
        and os.path.exists(os.path.join(out, "ckpt_final.pgt"))
        and len(metrics) == 4
        and 0.0 <= result["mca"] <= 1.0
    )
    announce(
        capsys, ok, 8,
        f"synth->reassign->features->train->eval exit codes {codes}, "
        f"{len(metrics)} metric records, eval MCA {result['mca']:.2f}",
    )
