"""The benchmark's workloads.

Both workloads run the whole user path in rounds: ``panograph synth``,
``reassign`` and ``features`` through the CLI, then training and inference.
They differ in shape and in which stage carries the time:

* ``train_desk``: rounds of three ingest batches of 32 desk clips (M=3,
  V=5, n=1, T=16, chain); on the first, a 4-epoch ``train`` at B=16 and
  channel divisor 4 and ``eval --fuse`` over ``ckpt_best`` and
  ``ckpt_final``, the other two batches following each stage. Small tensors: per-call overhead,
  BatchNorm, attention, per-epoch validation and checkpoints carry weight.
* ``train_panoramic``: nine ingest batches of 16 crowded clips (12
  persons, 17 joints, 1 object, 20 frames, 18 tracks for 12 slots). On the
  first: one training step at the paper shape (M=12, V=17, n=1, T=20, B=4,
  coco17 graph, full channels, 3.82 M parameters), a validation pass, a
  checkpoint save, and four forward-only batches from the reloaded
  checkpoint, one after every two of the other ingest batches. The crowded
  ingest is reassignment, features and PGT1 I/O with no nn; training and
  inference are the graph convolution and 1x1 contractions.

Every round's outputs, and the trained models, are checked outside the timed
region against the restatements in ``checks``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
from panograph import cli, data_io, graph, nn, train

NUM_CLASSES = 8
SETUP_REPEATS = 3
EVAL_BATCH = 16  # the batch ``panograph eval`` scores with
# features.bone_parents walks the chain through the object node attached to
# both chain ends, so the far half of every chain takes the ball, not joint
# j-1, as its parent: these streams disagree with the chain rule on every clip.
BONE_PARENT_FAULT = ("bone", "bone_motion")
# The untrained model's logits have a std near 12 (loss ~16 against ln 8), and
# at a learning rate of 0.01 some desk seeds diverge to non-finite gradients.
BASE_LR = 0.002


@dataclass(frozen=True)
class Shape:
    persons: int
    joints: int
    frames: int
    synth_flags: tuple[str, ...]
    objects: int = 1

    @property
    def nodes(self) -> int:
        return self.persons * (self.joints + self.objects)


# Distractor confidences overlap the players' (0.8): with jitter, dropout and
# id switches the activeness score decides which of the 18 tracks get a slot.
CROWD = Shape(12, 17, 20, ("--distractors", "6", "--distractor-conf", "0.75",
                           "--conf-jitter", "0.1", "--dropout", "0.05", "--id-switch", "0.02"))
DESK = Shape(3, 5, 16, ())


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    per_class: int  # clips per class in one ingest batch
    ingests: int  # ingest batches per round; the first one is trained on
    round_s: float  # nominal seconds of one round: a run does round(seconds / round_s) rounds
    layout: str  # graph layout of the model
    divisor: int  # channel divisor of the model
    batch: int
    epochs: int


WORKLOADS = {
    "train_desk": Workload("train_desk", DESK, 4, 3, 5.5, "chain", 4, 16, 4),
    "train_panoramic": Workload("train_panoramic", CROWD, 2, 9, 50.0, "coco17", 1, 4, 1),
}


class StageFailed(Exception):
    pass


class Ledger:
    """Operations attempted and failed, and the checks that failed.

    A check marked ``known_fault`` covers a defect of the program that fails
    on every input: it counts as a failed operation but leaves the run
    correct. Any other failed check makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, what: str, fn, *args, known_fault: bool = False) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.failed += 1
            print(f"{'KNOWN FAULT' if known_fault else 'CHECK FAILED'} {what}: {exc}", file=sys.stderr)
            if not known_fault:
                self.errors.append(f"{what}: {exc}")


def run_cli(argv: list[str]) -> tuple[float, str]:
    """One ``panograph`` stage in this process; returns (seconds, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise StageFailed(f"panograph {' '.join(argv)} exited with {code}")
    return elapsed, buf.getvalue()


def synth_argv(shape: Shape, per_class: int, seed: int, out: str) -> list[str]:
    return ["synth", "--classes", str(NUM_CLASSES), "--per-class", str(per_class),
            "--persons", str(shape.persons), "--joints", str(shape.joints),
            "--objects", str(shape.objects), "--frames", str(shape.frames),
            "--seed", str(seed), "--out", out, *shape.synth_flags]


def model_config(w: Workload) -> nn.ModelConfig:
    s = w.shape
    cfg = nn.ModelConfig(num_persons=s.persons, joints_per_person=s.joints,
                         object_keypoints=s.objects, num_frames=s.frames, num_classes=NUM_CLASSES)
    return cfg.scaled(w.divisor) if w.divisor > 1 else cfg


def setup_once(w: Workload, seed: int):
    """Topology, adjacency, model construction and one warm-up forward."""
    t0 = time.perf_counter()
    s = w.shape
    topo = graph.build_topology(w.layout, s.persons, s.joints, s.objects, inter_variant="pairwise")
    adjacency = graph.partition_and_normalize(topo).A_hat
    model = nn.MPGCN(model_config(w), adjacency, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    model.forward([rng.standard_normal((1, 6, s.frames, s.nodes)) for _ in range(4)], training=False)
    return time.perf_counter() - t0, model


def split(n: int) -> tuple[np.ndarray, np.ndarray]:
    val = np.array([i for i in range(n) if train.is_validation_index(i)], dtype=int)
    return np.setdiff1d(np.arange(n), val), val


class Run:
    def __init__(self, w: Workload, seed: int, seconds: float, workdir: str, tracer=None):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.ledger = Ledger()
        self.samples = {"synth": [], "ingest": [], "train": [], "infer": []}
        self.counts = {"clips": 0, "steps": 0,
                       "features_workers": int(os.environ.get("PANOGRAPH_THREADS", "1"))}
        self.timed_s = 0.0
        self.losses: list[float] = []
        self.peak_rss_mb = 0.0

    def mark_peak(self) -> None:
        """Peak resident memory of the timed work, taken before the checks."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @contextlib.contextmanager
    def timed(self):
        if self.tracer:
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timed_s += time.perf_counter() - t0
            if self.tracer:
                self.tracer.enabled = False

    # --- stages -----------------------------------------------------------

    def ingest(self, data_dir: str, seed: int) -> None:
        w = self.w
        clips = NUM_CLASSES * w.per_class
        self.ledger.ops(clips)
        with self.timed():
            t_synth, _ = run_cli(synth_argv(w.shape, w.per_class, seed, data_dir))
            t_reassign, _ = run_cli(["reassign", "--data", data_dir])
            t_features, _ = run_cli(["features", "--data", data_dir])
        self.samples["synth"].append(clips / t_synth)
        self.samples["ingest"].append(clips / (t_reassign + t_features))
        self.counts["clips"] += clips

    def check_ingest(self, data_dir: str, feature_clips: int = 1) -> None:
        """Every slot tensor against the two-stage rule; the first clips'
        cached streams against the loop restatement."""
        with open(os.path.join(data_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        for i, entry in enumerate(manifest["samples"]):
            with open(os.path.join(data_dir, entry["jsonl"])) as fh:
                lines = fh.readlines()
            tensor = checks.read_pgt1(os.path.join(data_dir, "tensors", entry["id"] + ".pgt"))["skeleton"]
            objects = checks.read_pgt1(os.path.join(data_dir, entry["truth"]))["objects"]
            self.ledger.check(f"slots {entry['id']}", checks.check_slot_tensor,
                              lines, tensor, objects, self.w.shape.persons)
            if i < feature_clips:
                cached = checks.read_pgt1(os.path.join(data_dir, "features", entry["id"] + ".pgt"))
                expect = checks.restate_streams(tensor, self.w.shape.joints)
                for name, ref in expect.items():
                    self.ledger.check(f"stream {name} {entry['id']}", checks.check_stream,
                                      name, cached.get(name, np.zeros(0)), ref,
                                      known_fault=name in BONE_PARENT_FAULT)

    def train_eval_cli(self, data_dir: str, out_dir: str, between=lambda: None) -> dict:
        """``panograph train`` then ``eval --fuse`` over best and final, with
        ``between`` run untimed between the two."""
        w = self.w
        n = NUM_CLASSES * w.per_class
        n_train = len(split(n)[0])
        steps = w.epochs * math.ceil(n_train / w.batch)
        cfg_path = os.path.join(self.workdir, "train.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"epochs = {w.epochs}\nwarmup_epochs = {min(1, w.epochs - 1)}\nbase_lr = {BASE_LR}\n"
                     f"batch_size = {w.batch}\nseed = {self.seed}\nchannel_divisor = {w.divisor}\n")
        ckpts = [os.path.join(out_dir, "ckpt_best.pgt"), os.path.join(out_dir, "ckpt_final.pgt")]
        self.ledger.ops(steps + len(ckpts) * math.ceil(n / EVAL_BATCH))
        with self.timed():
            t_train, log = run_cli(["train", "--config", cfg_path, "--data", data_dir, "--out", out_dir])
        between()
        with self.timed():
            t_eval, out = run_cli(["eval", "--ckpt", ckpts[0], "--ckpt", ckpts[1], "--fuse",
                                   "--data", data_dir])
        self.samples["train"].append(w.epochs * n_train / t_train)
        self.samples["infer"].append(n / t_eval)
        self.counts["steps"] += steps
        records = [json.loads(line) for line in log.splitlines() if line.startswith("{")]
        self.losses = [r["train_loss"] for r in records]
        return {"ckpts": ckpts, "eval": json.loads(out.strip().splitlines()[-1])}

    # --- checks on trained models ------------------------------------------

    def load_dataset(self, data_dir: str, reader) -> train.Dataset:
        with open(os.path.join(data_dir, "manifest.json")) as fh:
            entries = json.load(fh)["samples"]
        streams = [reader(os.path.join(data_dir, "features", e["id"] + ".pgt")) for e in entries]
        return train.Dataset(streams, np.array([e["label"] for e in entries], dtype=int))

    def check_training(self, model, streams, labels, grads: dict, lr: float) -> None:
        """Directional FD of the whole model's gradient (branches frozen at
        the forward that produced ``grads``) and one optimizer step against
        the restated Nesterov/weight-decay formula."""
        rng = np.random.default_rng(self.seed)
        checks.freeze_branches(model)
        try:
            self.ledger.check("gradient", checks.check_gradient, model, streams, labels, grads, rng)
        finally:
            checks.freeze_branches(model, False)
        cfg = train.TrainConfig(momentum=0.9, weight_decay=2e-4)
        opt = train.SGDNesterov(model, cfg)
        opt.step(model, lr)  # a first step leaves a non-zero velocity
        before = {k: p.copy() for k, p in model.named_parameters()}
        velocity = {k: v.copy() for k, v in opt.velocity.items()}
        model_grads = {k: g.copy() for k, g in model.named_grads()}
        opt.step(model, lr)
        after = dict(model.named_parameters())
        self.ledger.check("nesterov step", checks.check_nesterov_step, before, velocity, model_grads,
                          after, lr, cfg.momentum, cfg.weight_decay)

    def check_cli_model(self, data_dir: str, result: dict) -> None:
        """Checks on the CLI-trained checkpoints of one round."""
        w = self.w
        ckpts = result["ckpts"]
        ds = self.load_dataset(data_dir, checks.read_pgt1)
        idx = np.arange(len(ds))
        loaded = [train.load_checkpoint(p) for p in ckpts]
        fused = sum(train.predict_scores(m, ds, idx, s, EVAL_BATCH) for m, s in loaded) / len(loaded)
        self.ledger.check("eval metrics", checks.check_metrics, result["eval"], fused, ds.labels)
        self.ledger.check("train losses", checks.check_finite, self.losses, "train losses")

        model, stats = loaded[1]
        batch_idx = split(len(ds))[0][: w.batch]
        streams = train.stack_batch(ds, batch_idx, stats)
        labels = ds.labels[batch_idx]
        model.zero_grad()
        _, glogits = nn.cross_entropy(model.forward(streams, training=True), labels)
        model.backward(glogits)
        grads = {k: g.copy() for k, g in model.named_grads()}
        self.check_training(model, streams, labels, grads, lr=BASE_LR)

    def check_desk_eval(self, data_dir: str, result: dict) -> None:
        ckpts = result["ckpts"]
        self.ledger.check("loss decreased", checks.check_loss_decreased, self.losses)
        _, single = run_cli(["eval", "--ckpt", ckpts[0], "--data", data_dir])
        _, self_fused = run_cli(["eval", "--ckpt", ckpts[0], "--ckpt", ckpts[0], "--fuse", "--data", data_dir])
        self.ledger.check("self-fusion", checks.require, single == self_fused,
                          f"fusing a checkpoint with itself gives {self_fused!r}, single {single!r}")
        ds = self.load_dataset(data_dir, checks.read_pgt1)
        model, stats = train.load_checkpoint(ckpts[1])
        copy = os.path.join(self.workdir, "reloaded.pgt")
        train.save_checkpoint(copy, model, stats, {"layout": self.w.layout, "inter_variant": "pairwise"})
        again, stats2 = train.load_checkpoint(copy)
        idx = np.arange(min(len(ds), EVAL_BATCH))
        a = model.forward(train.stack_batch(ds, idx, stats), training=False)
        b = again.forward(train.stack_batch(ds, idx, stats2), training=False)
        self.ledger.check("reload", checks.require, np.array_equal(a, b),
                          "logits after a save/load round trip differ")

    # --- results ------------------------------------------------------------

    def metrics(self, setup_times: list[float]) -> dict[str, tuple[float, str]]:
        out = {"setup_s": (statistics.median(setup_times), "s")}
        for key, name, unit in (("synth", "synth_clips_per_s", "clips/s"),
                                ("ingest", "ingest_clips_per_s", "clips/s"),
                                ("train", "train_samples_per_s", "samples/s"),
                                ("infer", "infer_samples_per_s", "samples/s")):
            out[name] = (statistics.median(self.samples[key]), unit)
        out["peak_rss_mb"] = (self.peak_rss_mb, "MB")
        return out


def _ingest_batch(run: Run, r: int, k: int) -> str:
    """Ingest batch k of round r, checked; returns its directory."""
    data = os.path.join(run.workdir, f"round{r}-{k}")
    run.ingest(data, run.seed * 1000 + 10 * r + k)
    run.check_ingest(data)
    return data


def _rounds(run: Run, body) -> None:
    """A fixed number of whole rounds, sized from ``--seconds``: the same
    operations in every run, so a failing check is the same share of them."""
    for r in range(max(1, round(run.seconds / run.w.round_s))):
        body(r)


def run_train_desk(run: Run) -> None:
    last = {}

    def body(r):
        # the other ingest batches follow the train and the eval stage, so
        # ingest is sampled across the round
        data = _ingest_batch(run, r, 0)
        result = run.train_eval_cli(data, os.path.join(data, "model"),
                                    between=lambda: _remove(_ingest_batch(run, r, 1)))
        for k in range(2, run.w.ingests):
            _remove(_ingest_batch(run, r, k))
        if "data" in last:
            _remove(last["data"])
        last.update(data=data, result=result)

    _rounds(run, body)
    run.mark_peak()
    run.check_cli_model(last["data"], last["result"])
    run.check_desk_eval(last["data"], last["result"])


def run_train_panoramic(run: Run, model) -> None:
    """One step on 4 of the first batch's 16 clips, then forward-only
    batches over all 16; the inference rate is the median over batches,
    checkpoint loading excluded."""
    w = run.w
    lr = BASE_LR
    opt_cfg = train.TrainConfig(momentum=0.9, weight_decay=2e-4, batch_size=w.batch)
    graph_info = {"layout": w.layout, "inter_variant": "pairwise"}
    probe = {}

    def body(r):
        data = _ingest_batch(run, r, 0)
        n = NUM_CLASSES * w.per_class
        batches = [np.arange(i, min(i + w.batch, n)) for i in range(0, n, w.batch)]
        run.ledger.ops(1 + len(batches))
        train_idx, val_idx = split(n)
        batch_idx = train_idx[: w.batch]
        if r == 0:
            probe["params"] = {k: p.copy() for k, p in model.named_parameters()}
        ckpt = os.path.join(data, "model.pgt")
        with run.timed():
            t0 = time.perf_counter()
            ds = run.load_dataset(data, data_io.read_tensor_container)
            stats = train.compute_norm_stats(ds, train_idx)
            optimizer = train.SGDNesterov(model, opt_cfg)
            streams = train.stack_batch(ds, batch_idx, stats)
            model.zero_grad()
            logits = model.forward(streams, training=True)
            loss, glogits = nn.cross_entropy(logits, ds.labels[batch_idx])
            model.backward(glogits)
            optimizer.step(model, lr)
            # one sample a batch, so the training model's cached activations
            # stay small while the served model runs
            train.evaluate_model(model, ds, val_idx, stats, 1)
            train.save_checkpoint(ckpt, model, stats, graph_info)
            t1 = time.perf_counter()
            served, served_stats = train.load_checkpoint(ckpt)
        outputs, rates = [], []
        for k in range(1, w.ingests):
            # the other ingest batches and the inference batches interleave, so
            # both are sampled across the round, not in one window of the
            # host's changing load
            _remove(_ingest_batch(run, r, k))
            while len(rates) < k * len(batches) // (w.ingests - 1):
                idx = batches[len(rates)]
                with run.timed():
                    t2 = time.perf_counter()
                    out = served.forward(train.stack_batch(ds, idx, served_stats), training=False)
                    rates.append(len(idx) / (time.perf_counter() - t2))
                outputs.append((out, nn.softmax(out)))
        run.samples["train"].append(len(batch_idx) / (t1 - t0))
        run.samples["infer"].append(statistics.median(rates))
        run.counts["steps"] += 1
        run.losses.append(loss)
        if r == 0:
            single = [s[:1] for s in train.stack_batch(ds, batches[0], served_stats)]
            probe.update(streams=streams, labels=ds.labels[batch_idx], outputs=outputs,
                         grads={k: g.copy() for k, g in model.named_grads()},
                         alone=served.forward(single, training=False))
        _remove(data)

    _rounds(run, body)
    run.mark_peak()
    run.ledger.check("train losses", checks.check_finite, run.losses, "train losses")
    for logits, probs in probe["outputs"]:
        run.ledger.check("softmax rows", checks.check_softmax_rows, probs)
    run.ledger.check("batch independence", checks.check_batch_independent,
                     probe["outputs"][0][0][:1], probe["alone"])
    # back to the parameters of the first step, whose forward fixes the branches
    for k, p in model.named_parameters():
        p[...] = probe["params"][k]
    model.forward(probe["streams"], training=True)
    run.check_training(model, probe["streams"], probe["labels"], probe["grads"], lr)


def _remove(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
