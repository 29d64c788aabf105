"""Command-line pipeline: synth -> reassign -> features -> train -> eval,
plus a gradcheck subcommand for the finite-difference suite."""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import data_io, features, graph, gradcheck, train
from .errors import ConfigError, PanographError
from .nn import ModelConfig
from .nn.model import STREAM_ORDER
from .reassign import assemble_sequence, parse_jsonl

GRADCHECK_TOL = 1e-4


def _worker_count() -> int:
    cap = os.environ.get("PANOGRAPH_THREADS")
    if not cap:
        return min(os.cpu_count() or 1, 8)
    if not cap.isdecimal() or int(cap) < 1:
        raise ConfigError(f"PANOGRAPH_THREADS must be a positive integer, got {cap!r}")
    return int(cap)


def cmd_synth(args) -> int:
    spec = data_io.SyntheticSpec(
        num_classes=args.classes,
        samples_per_class=args.per_class,
        num_persons=args.persons,
        num_joints=args.joints,
        num_objects=args.objects,
        num_frames=args.frames,
        noise_std=args.noise,
        seed=args.seed,
        num_distractors=args.distractors,
        distractor_conf=args.distractor_conf,
        conf_jitter=args.conf_jitter,
        dropout_prob=args.dropout,
        id_switch_prob=args.id_switch,
    )
    samples = data_io.generate_synthetic(spec)
    os.makedirs(os.path.join(args.out, "samples"), exist_ok=True)
    os.makedirs(os.path.join(args.out, "truth"), exist_ok=True)
    entries = []
    for i, sample in enumerate(samples):
        sid = f"s{i:04d}"
        jsonl_rel = os.path.join("samples", sid + ".jsonl")
        with open(os.path.join(args.out, jsonl_rel), "w") as fh:
            fh.write("\n".join(sample.jsonl) + "\n")
        truth_rel = os.path.join("truth", sid + ".pgt")
        data_io.write_tensor_container(
            os.path.join(args.out, truth_rel),
            {
                "skeleton": sample.skeleton,
                "objects": sample.objects,
                "clean": sample.clean,
            },
        )
        entries.append({"id": sid, "label": sample.label, "jsonl": jsonl_rel, "truth": truth_rel})
    manifest = {
        "layout": "chain",
        "num_persons": spec.num_persons,
        "num_joints": spec.num_joints,
        "num_objects": spec.num_objects,
        "num_frames": spec.num_frames,
        "num_classes": spec.num_classes,
        "samples": entries,
    }
    data_io.save_manifest(args.out, manifest)
    print(f"wrote {len(entries)} samples to {args.out}")
    return 0


def cmd_reassign(args) -> int:
    manifest = data_io.load_manifest(args.data)
    tensor_dir = os.path.join(args.data, "tensors")
    os.makedirs(tensor_dir, exist_ok=True)
    reports = {}
    for entry in manifest["samples"]:
        with open(os.path.join(args.data, entry["jsonl"])) as fh:
            frames = parse_jsonl(fh, manifest["num_joints"])
        tensor, report = assemble_sequence(
            frames, manifest["num_persons"], manifest["num_joints"], score_mode=args.score_mode
        )
        truth = data_io.read_tensor_container(os.path.join(args.data, entry["truth"]))
        full = data_io.append_object_nodes(tensor, truth["objects"])
        data_io.write_tensor_container(
            os.path.join(tensor_dir, entry["id"] + ".pgt"), {"skeleton": full}
        )
        reports[entry["id"]] = json.loads(report.to_json())
    with open(os.path.join(args.data, "reassign_report.json"), "w") as fh:
        json.dump(reports, fh, indent=1)
    print(f"reassigned {len(reports)} samples")
    return 0


def _topology_from_manifest(manifest, inter_variant="pairwise"):
    return graph.build_topology(
        manifest["layout"],
        manifest["num_persons"],
        manifest["num_joints"],
        manifest["num_objects"],
        inter_variant=inter_variant,
    )


def cmd_features(args) -> int:
    manifest = data_io.load_manifest(args.data)
    topo = _topology_from_manifest(manifest)
    feat_dir = os.path.join(args.data, "features")
    os.makedirs(feat_dir, exist_ok=True)

    def process(entry):
        tensors = data_io.read_tensor_container(
            os.path.join(args.data, "tensors", entry["id"] + ".pgt")
        )
        x = tensors["skeleton"]
        if args.dims == 2:
            x = x[..., :2]
        bundle = features.build_feature_bundle(x, topo)
        data_io.write_tensor_container(
            os.path.join(feat_dir, entry["id"] + ".pgt"), bundle.streams()
        )

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        list(pool.map(process, manifest["samples"]))
    print(f"cached features for {len(manifest['samples'])} samples (C={args.dims})")
    return 0


TRAIN_CONFIG_KEYS = {
    "epochs": int,
    "warmup_epochs": int,
    "base_lr": float,
    "momentum": float,
    "weight_decay": float,
    "batch_size": int,
    "seed": int,
    "channel_divisor": int,
    "inter_variant": str,
}


def _load_dataset(data_dir, manifest) -> train.Dataset:
    streams, labels = [], []
    for entry in manifest["samples"]:
        path = os.path.join(data_dir, "features", entry["id"] + ".pgt")
        streams.append(data_io.read_tensor_container(path))
        labels.append(entry["label"])
    return train.Dataset(streams, np.array(labels, dtype=int))


def cmd_train(args) -> int:
    manifest = data_io.load_manifest(args.data)
    with open(args.config) as fh:
        raw = data_io.parse_flat_config(fh.read(), TRAIN_CONFIG_KEYS)
    divisor = raw.pop("channel_divisor", 1)
    inter_variant = raw.pop("inter_variant", "pairwise")
    train_cfg = train.TrainConfig(**raw)
    topo = _topology_from_manifest(manifest, inter_variant)
    adjacency = graph.partition_and_normalize(topo).A_hat

    ds = _load_dataset(args.data, manifest)
    in_channels = ds.streams[0][STREAM_ORDER[0]].shape[-1] // 2
    model_cfg = ModelConfig(
        num_persons=manifest["num_persons"],
        joints_per_person=manifest["num_joints"],
        object_keypoints=manifest["num_objects"],
        num_frames=manifest["num_frames"],
        num_classes=manifest["num_classes"],
        in_channels=in_channels,
    )
    if divisor > 1:
        model_cfg = model_cfg.scaled(divisor)
    os.makedirs(args.out, exist_ok=True)
    graph_info = {"layout": manifest["layout"], "inter_variant": inter_variant}
    train.train_loop(
        ds,
        model_cfg,
        train_cfg,
        adjacency,
        out_dir=args.out,
        log_fn=lambda rec: print(json.dumps(rec)),
        graph_info=graph_info,
    )
    return 0


def cmd_eval(args) -> int:
    manifest = data_io.load_manifest(args.data)
    ds = _load_dataset(args.data, manifest)
    loaded = [train.load_checkpoint(path) for path in args.ckpt]
    result = train.evaluate(ds, loaded, fuse=args.fuse)
    print(
        json.dumps(
            {
                "mca": result["mca"],
                "mpca": result["mpca"],
                "confusion": result["confusion"].tolist(),
            }
        )
    )
    return 0


def cmd_gradcheck(args) -> int:
    worst_overall = 0.0
    for seed in range(args.seed, args.seed + args.seeds):
        errors, worst = gradcheck.run_full_suite(seed, thorough=(seed == args.seed))
        for name, err in sorted(errors.items()):
            print(f"seed {seed}  {name:<20s} max rel err {err:.3e}")
        worst_overall = max(worst_overall, worst)
    print(f"overall max rel err {worst_overall:.3e} (tolerance {GRADCHECK_TOL:.0e})")
    if worst_overall >= GRADCHECK_TOL:
        print("gradcheck FAILED", file=sys.stderr)
        return 1
    print("gradcheck passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panograph",
        description="Skeleton-based group activity pipeline on synthetic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", type=int, default=8)
    p.add_argument("--persons", type=int, default=3)
    p.add_argument("--joints", type=int, default=5)
    p.add_argument("--objects", type=int, default=1)
    p.add_argument("--frames", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distractors", type=int, default=2)
    p.add_argument("--distractor-conf", type=float, default=0.3)
    p.add_argument("--conf-jitter", type=float, default=0.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--id-switch", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("reassign", help="map detections onto the fixed roster")
    p.add_argument("--data", required=True)
    p.add_argument("--score-mode", choices=["conf+activeness", "conf_only"], default="conf+activeness")
    p.set_defaults(fn=cmd_reassign)

    p = sub.add_parser("features", help="materialize the four input streams")
    p.add_argument("--data", required=True)
    p.add_argument("--dims", type=int, choices=[2, 3], default=3)
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("train", help="train the model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoint(s)")
    p.add_argument("--ckpt", action="append", required=True)
    p.add_argument("--fuse", action="store_true")
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PanographError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
