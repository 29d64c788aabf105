"""Dump what the program writes, to check that a change keeps every byte.

    PYTHONPATH=src python tests/tools/dump_outputs.py OUT_DIR
    PYTHONPATH=src python tests/tools/dump_outputs.py --compare OUT_A OUT_B

The first form writes under OUT_DIR (which must not exist):

- ``pipeline/<set>/``: the ``synth``, ``reassign`` and ``features`` files of
  three data sets, the default flags and the benchmark's desk and crowd
  flag sets (seed 3);
- ``pipeline/default/run/``: a 3-epoch ``train`` on the default set,
  ``eval --fuse`` of its two checkpoints, ``eval`` of the final one alone,
  and ``eval`` of both without ``--fuse`` (which exits 1);
- ``*.out``: the stdout, stderr and exit code of every command,
  ``gradcheck --seed 0 --seeds 10`` included;
- ``model.npz``: model arrays at four shapes (desk chain, desk with
  ``in_channels=2``, tiny chain, coco17 at paper width; model seed 123,
  input seed 7): initial parameters, training logits, input and parameter
  gradients, BN buffers, what the first training forward cached for its
  kinks (every ReLU mask, ``MaxPoolT`` tap array and ``STPAttention`` gate
  mask, keyed by module path), one SGD step, a second forward and
  backward, the frozen forward under ``gradcheck.freeze_kinks`` and under
  the freezer of ``panobench/checks.py`` (the flag on the ReLU, MaxPoolT
  and STPAttention instances only), and eval logits.

Run it once with PYTHONPATH at the parent's ``src`` and once at the change's,
then ``--compare`` the two directories: every file other than ``.npz`` must be
byte-identical and every array ``np.array_equal`` with the same dtype. It
exits 0 when everything matches and 1 otherwise. Under a ``.pgt`` file that
differs it lists each entry that differs, read with
``panograph.data_io.read_tensor_container``. pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

import numpy as np

TRAIN_CFG = """\
epochs = 3
warmup_epochs = 1
base_lr = 0.01
batch_size = 16
seed = 0
channel_divisor = 4
"""

DESK = ["--classes", "8", "--per-class", "4", "--persons", "3", "--joints", "5",
        "--objects", "1", "--frames", "16", "--seed", "3"]
CROWD = ["--classes", "8", "--per-class", "2", "--persons", "12", "--joints", "17",
         "--objects", "1", "--frames", "20", "--seed", "3", "--distractors", "6",
         "--distractor-conf", "0.75", "--conf-jitter", "0.1", "--dropout", "0.05",
         "--id-switch", "0.02"]

# (name, layout, persons, joints, objects, frames, batch, divisor, in_channels)
SHAPES = [
    ("desk", "chain", 3, 5, 1, 16, 8, 4, 3),
    ("desk_c2", "chain", 3, 5, 1, 16, 8, 4, 2),
    ("tiny", "chain", 2, 3, 0, 4, 3, 8, 3),
    ("coco17", "coco17", 12, 17, 1, 20, 2, 1, 3),
]


def run(name: str, argv: list[str]) -> None:
    """``panograph <argv>`` in this process; stdout, stderr and the exit code go to ``name.out``."""
    from panograph import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    with open(name + ".out", "w") as fh:
        fh.write(f"{out.getvalue()}stderr:\n{err.getvalue()}exit {code}\n")


def dump_pipeline() -> None:
    for name, flags in (("default", []), ("desk", DESK), ("crowd", CROWD)):
        data = os.path.join("pipeline", name)
        run(f"synth_{name}", ["synth", *flags, "--out", data])
        run(f"reassign_{name}", ["reassign", "--data", data])
        run(f"features_{name}", ["features", "--data", data])
    data, out = os.path.join("pipeline", "default"), os.path.join("pipeline", "default", "run")
    with open("train.cfg", "w") as fh:
        fh.write(TRAIN_CFG)
    run("train", ["train", "--config", "train.cfg", "--data", data, "--out", out])
    ckpts = ["--ckpt", os.path.join(out, "ckpt_best.pgt"), "--ckpt", os.path.join(out, "ckpt_final.pgt")]
    run("eval_fuse", ["eval", *ckpts, "--fuse", "--data", data])
    run("eval_single", ["eval", *ckpts[2:], "--data", data])
    run("eval_nofuse", ["eval", *ckpts, "--data", data])
    run("gradcheck", ["gradcheck", "--seed", "0", "--seeds", "10"])


def freeze_listed(module, frozen: bool) -> None:
    """The freezer of panobench/checks.py: the flag on three classes' instances only."""
    if type(module).__name__ in ("ReLU", "MaxPoolT", "STPAttention"):
        module._freeze_kinks = frozen
    for _, child in module._children:
        freeze_listed(child, frozen)


def kinks(module, prefix=""):
    """(module path, array) for what a training forward cached for each kink: ReLU
    masks, MaxPoolT taps and STPAttention gate masks."""
    cached = module._cache
    if cached is not None:
        kind = type(module).__name__
        if kind == "ReLU":
            yield prefix + "mask", cached
        elif kind == "MaxPoolT":
            yield prefix + "taps", cached[0]
        elif kind == "STPAttention":
            yield prefix + "mask", cached[-1]
    for name, child in module._children:
        yield from kinks(child, prefix + name + ".")


def dump_model(name, layout, M, V, n, T, B, divisor, C) -> dict[str, np.ndarray]:
    from panograph import graph, gradcheck, nn, train

    cfg = nn.ModelConfig(M, V, n, T, num_classes=5, in_channels=C, channel_divisor=divisor)
    topo = graph.build_topology(layout, M, V, n, "pairwise")
    model = nn.MPGCN(cfg, graph.partition_and_normalize(topo).A_hat, np.random.default_rng(123))
    rng = np.random.default_rng(7)
    streams = [rng.standard_normal((B, 2 * C, T, cfg.num_nodes)) for _ in range(4)]
    labels = rng.integers(0, cfg.num_classes, size=B)
    out: dict[str, np.ndarray] = {}

    def put(tag, arrays):
        for key, value in arrays:
            out[f"{name}/{tag}/{key}"] = np.array(value)

    def step(tag):
        model.zero_grad()
        logits = model.forward(streams, training=True)
        if tag == "train1":
            put("kinks", kinks(model))
        _, glogits = nn.cross_entropy(logits, labels)
        put(tag, [("logits", logits)] + list(enumerate(model.backward(glogits))))
        put(tag + ".grad", model.named_grads())
        put(tag + ".buffer", model.named_buffers())

    put("init", model.named_parameters())
    step("train1")
    train.SGDNesterov(model, train.TrainConfig()).step(model, 0.01)
    put("sgd", model.named_parameters())
    step("train2")
    for tag, freeze in (("frozen_all", gradcheck.freeze_kinks), ("frozen_listed", freeze_listed)):
        freeze(model, True)
        put(tag, [("logits", model.forward(streams, training=True))])
        freeze(model, False)
    put("eval", [("logits", model.forward(streams, training=False))])
    return out


def dump(out_dir: str) -> None:
    os.makedirs(out_dir)
    os.chdir(out_dir)  # relative paths: the printed lines do not name out_dir
    dump_pipeline()
    arrays = {}
    for shape in SHAPES:
        arrays.update(dump_model(*shape))
    np.savez("model.npz", **arrays)
    print(f"{out_dir}: {len(arrays)} arrays")


def files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names}


def spans(ix: np.ndarray) -> str:
    """Sorted distinct indices as runs: ``[0, 1, 2, 9]`` gives ``0-2, 9``."""
    runs = np.split(ix, np.flatnonzero(np.diff(ix) != 1) + 1)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def entry_differences(pa: str, pb: str) -> list[str]:
    """One line per entry that differs between two tensor containers: its count of
    differing values and, on each axis where not every index differs, the ones that do."""
    from panograph.data_io import read_tensor_container

    ta, tb = read_tensor_container(pa), read_tensor_container(pb)
    lines = [f"    {name}: in one side only" for name in sorted(set(ta) ^ set(tb))]
    for name in sorted(set(ta) & set(tb)):
        x, y = ta[name], tb[name]
        if x.dtype != y.dtype or x.shape != y.shape:
            lines.append(f"    {name}: {x.dtype}{x.shape} against {y.dtype}{y.shape}")
            continue
        at = np.argwhere(x != y)
        if len(at):
            axes = [np.unique(col) for col in at.T]
            where = "; ".join(f"axis {k} at {spans(ix)}" for k, ix in enumerate(axes) if len(ix) < x.shape[k])
            lines.append(f"    {name}: {len(at)} of {x.size} values differ" + (f", {where}" if where else ""))
    return lines


def compare(a: str, b: str) -> int:
    fa, fb = files(a), files(b)
    bad = [f"only in {root}: {f}" for root, only in ((a, fa - fb), (b, fb - fa)) for f in sorted(only)]
    arrays = 0
    for rel in sorted(fa & fb):
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        if not rel.endswith(".npz"):
            with open(pa, "rb") as ha, open(pb, "rb") as hb:
                if ha.read() != hb.read():
                    details = entry_differences(pa, pb) if rel.endswith(".pgt") else []
                    bad.append("\n".join([f"differs: {rel}"] + details))
            continue
        with np.load(pa) as za, np.load(pb) as zb:
            if set(za.files) != set(zb.files):
                bad.append(f"{rel}: array names differ: {sorted(set(za.files) ^ set(zb.files))[:5]}")
            for key in sorted(set(za.files) & set(zb.files)):
                arrays += 1
                x, y = za[key], zb[key]
                if x.dtype != y.dtype or not np.array_equal(x, y):
                    bad.append(f"{rel}: {key} differs")
    print("\n".join(bad))
    print(f"{len(fa & fb)} files and {arrays} arrays compared, {len(bad)} differences")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps")
    parser.add_argument("out_dir", nargs="?", help="where to dump (must not exist)")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.out_dir:
        parser.error("give OUT_DIR or --compare A B")
    dump(os.path.abspath(args.out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
