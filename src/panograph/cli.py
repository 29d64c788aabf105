"""Command-line pipeline: synth -> reassign -> features -> train -> eval,
plus a gradcheck subcommand for the finite-difference suite."""
from __future__ import annotations

import argparse
import json
import os
import sys
import typing

import numpy as np

from . import data_io, features, graph, gradcheck, train
from .errors import ConfigError, InputError, PanographError
from .nn import ModelConfig
from .nn.model import STREAM_ORDER
from .reassign import assemble_sequence, parse_jsonl

GRADCHECK_TOL = 1e-4
GRAPH_KEYS = ("layout", "num_persons", "num_joints", "num_objects")  # build_topology's arguments


# `panograph synth` flags and the SyntheticSpec fields they set, whose types and defaults they take
SYNTH_FLAGS = (
    ("classes", "num_classes"), ("per-class", "samples_per_class"), ("persons", "num_persons"),
    ("joints", "num_joints"), ("objects", "num_objects"), ("frames", "num_frames"),
    ("noise", "noise_std"), ("seed", "seed"), ("distractors", "num_distractors"),
    ("distractor-conf", "distractor_conf"), ("conf-jitter", "conf_jitter"),
    ("dropout", "dropout_prob"), ("id-switch", "id_switch_prob"),
)


def cmd_synth(args) -> int:
    spec = data_io.SyntheticSpec(**{field: getattr(args, field) for _, field in SYNTH_FLAGS})
    samples = data_io.generate_synthetic(spec)
    os.makedirs(os.path.join(args.out, "samples"), exist_ok=True)
    os.makedirs(os.path.join(args.out, "truth"), exist_ok=True)
    entries = []
    for i, sample in enumerate(samples):
        sid = f"s{i:04d}"
        jsonl_rel = os.path.join("samples", sid + ".jsonl")
        data_io.write_atomic(os.path.join(args.out, jsonl_rel),
                             lambda fh: fh.write("\n".join(sample.jsonl) + "\n"), "w")
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
    manifest = data_io.load_manifest(args.data, ("num_persons", "num_joints", "num_frames"),
                                     ("id", "jsonl", "truth"))
    tensor_dir = os.path.join(args.data, "tensors")
    os.makedirs(tensor_dir, exist_ok=True)
    reports = {}
    for entry in manifest["samples"]:
        path = os.path.join(args.data, entry["jsonl"])
        text = data_io.read_input(path)
        truth_path = os.path.join(args.data, entry["truth"])
        truth = data_io.read_tensor_container(truth_path, ("objects",))
        try:
            frames = parse_jsonl(text.split("\n"), manifest["num_joints"])
            tensor, report = assemble_sequence(frames, manifest["num_persons"], manifest["num_joints"],
                                               num_frames=manifest["num_frames"])
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
        try:
            full = data_io.append_object_nodes(tensor, truth["objects"])
        except InputError as exc:
            raise InputError(f"{truth_path}: {exc}") from exc
        data_io.write_tensor_container(
            os.path.join(tensor_dir, entry["id"] + ".pgt"), {"skeleton": full}
        )
        reports[entry["id"]] = {"slot_mean_track_len": report.slot_mean_track_len,
                                "dropped_per_frame": report.dropped_per_frame}
    data_io.write_atomic(os.path.join(args.data, "reassign_report.json"),
                         lambda fh: json.dump(reports, fh, indent=1), "w")
    print(f"reassigned {len(reports)} samples")
    return 0


def cmd_features(args) -> int:
    manifest = data_io.load_manifest(args.data, GRAPH_KEYS, ("id",))
    topo = graph.build_topology(*(manifest[key] for key in GRAPH_KEYS))
    feat_dir = os.path.join(args.data, "features")
    os.makedirs(feat_dir, exist_ok=True)

    for entry in manifest["samples"]:
        path = os.path.join(args.data, "tensors", entry["id"] + ".pgt")
        x = data_io.read_tensor_container(path, ("skeleton",))["skeleton"]
        if args.dims == 2:
            x = x[..., :2]
        try:
            bundle = features.build_feature_bundle(x, topo)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
        data_io.write_tensor_container(
            os.path.join(feat_dir, entry["id"] + ".pgt"), bundle.streams()
        )
    print(f"cached features for {len(manifest['samples'])} samples (C={args.dims})")
    return 0


TRAIN_CONFIG_KEYS = {
    **typing.get_type_hints(train.TrainConfig),
    "channel_divisor": int,
    "inter_variant": str,
}


def _load_dataset(data_dir, manifest) -> train.Dataset:
    """Every sample's streams and label. All streams share one (frames, nodes, channels)
    shape, the first sample's joint stream's; InputError names the first file that differs."""
    streams, labels = [], []
    for entry in manifest["samples"]:
        path = os.path.join(data_dir, "features", entry["id"] + ".pgt")
        sample = data_io.read_tensor_container(path, STREAM_ORDER)
        want = (streams[0] if streams else sample)[STREAM_ORDER[0]].shape
        for key in STREAM_ORDER:
            shape = sample[key].shape
            if len(shape) != 3:
                raise InputError(f"{path}: stream {key!r} has shape {shape}, "
                                 "expected (frames, nodes, channels)")
            if shape != want:
                raise InputError(f"{path}: stream {key!r} has shape {shape}, "
                                 f"the first sample's streams {want}")
        streams.append(sample)
        labels.append(entry["label"])
    return train.Dataset(streams, np.array(labels, dtype=int))


def cmd_train(args) -> int:
    keys = GRAPH_KEYS + ("num_frames", "num_classes")
    manifest = data_io.load_manifest(args.data, keys, ("id", "label"))
    raw = data_io.parse_flat_config(data_io.read_input(args.config), TRAIN_CONFIG_KEYS)
    divisor = raw.pop("channel_divisor", 1)
    graph_info = {"layout": manifest["layout"], "inter_variant": raw.pop("inter_variant", "pairwise")}
    train_cfg = train.TrainConfig(**raw)
    ds = _load_dataset(args.data, manifest)
    in_channels = ds.streams[0][STREAM_ORDER[0]].shape[-1] // 2
    model_cfg = ModelConfig(
        num_persons=manifest["num_persons"],
        joints_per_person=manifest["num_joints"],
        object_keypoints=manifest["num_objects"],
        num_frames=manifest["num_frames"],
        num_classes=manifest["num_classes"],
        in_channels=in_channels,
        channel_divisor=divisor,
    )
    os.makedirs(args.out, exist_ok=True)
    train.train_loop(
        ds,
        model_cfg,
        train_cfg,
        graph_info,
        out_dir=args.out,
        log_fn=lambda rec: print(json.dumps(rec)),
    )
    return 0


def cmd_eval(args) -> int:
    if len(args.ckpt) > 1 and not args.fuse:
        raise InputError("multiple checkpoints require --fuse")
    manifest = data_io.load_manifest(args.data, sample_keys=("id", "label"))
    ds = _load_dataset(args.data, manifest)
    loaded = [train.load_checkpoint(path) for path in args.ckpt]
    result = train.evaluate(ds, loaded)

    def summary(metrics: dict) -> dict:
        return {"mca": metrics["mca"], "mpca": metrics["mpca"], "confusion": metrics["confusion"].tolist()}

    val = result["val"]
    print(json.dumps({**summary(result), "val": summary(val) if val is not None else None}))
    return 0


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.seeds < 1:  # an empty seed range would pass on no checks
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    worst_overall = 0.0
    for seed in range(args.seed, args.seed + args.seeds):
        coverage = gradcheck.Coverage()
        errors, worst = gradcheck.run_full_suite(seed, seed == args.seed, coverage)
        for name, err in sorted(errors.items()):
            print(f"seed {seed}  {name:<20s} max rel err {err:.3e}")
        print(f"seed {seed}  {coverage.floored} of {coverage.checks} checks floored "
              f"(|FD| and |analytic| both <= {gradcheck.ABS_FLOOR:.0e})")
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
    hints, spec = typing.get_type_hints(data_io.SyntheticSpec), data_io.SyntheticSpec()
    for flag, field in SYNTH_FLAGS:
        p.add_argument("--" + flag, dest=field, type=hints[field], default=getattr(spec, field))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("reassign", help="map detections onto the fixed roster")
    p.add_argument("--data", required=True)
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
    except (PanographError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
