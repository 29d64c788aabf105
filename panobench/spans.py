"""Spans around calls into the program's layers, recorded from outside it.

``Tracer.install`` replaces the public functions and methods named in
``TARGETS`` with timing wrappers, including every name another program
module bound at import (``cli.parse_jsonl`` is ``reassign.parse_jsonl``).
Spans are kept in memory while ``Tracer.enabled`` is set and written to a
file at the end; ``layer_metrics`` turns them into per-layer figures, with
self time for the composite modules.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

LEAF_LAYERS = ("SpatialGraphConv", "Conv1x1", "TemporalConv", "BatchNorm",
               "ReLU", "MaxPoolT", "STPAttention", "Linear")
BLOCKS = ("BasicBlock", "MultiScaleTCN", "_ConvBranch", "_PoolBranch")
COUNTED_LAYERS = ("SpatialGraphConv", "Conv1x1", "TemporalConv")

# (module, attribute or Class.method, span name)
TARGETS = (
    [("panograph.nn.layers", f"{c}.{m}", f"nn.layers.{c}.{m}")
     for c in LEAF_LAYERS for m in ("forward", "backward")]
    + [("panograph.nn.blocks", f"{c}.{m}", f"nn.blocks.{c}.{m}")
       for c in BLOCKS for m in ("forward", "backward")]
    + [("panograph.nn.model", f"{c}.{m}", f"nn.model.{c}.{m}")
       for c in ("MPGCN", "_BlockStack") for m in ("forward", "backward")]
    + [
        ("panograph.data_io", "generate_sample", "data_io.synth"),
        ("panograph.data_io", "write_tensor_container", "data_io.write"),
        ("panograph.data_io", "read_tensor_container", "data_io.read"),
        ("panograph.reassign", "parse_jsonl", "reassign.parse"),
        ("panograph.reassign", "assemble_sequence", "reassign.assemble"),
        ("panograph.features", "build_feature_bundle", "features.build"),
        ("panograph.graph", "build_topology", "graph.topology"),
        ("panograph.graph", "partition_and_normalize", "graph.adjacency"),
        ("panograph.train", "stack_batch", "train.stack_batch"),
        ("panograph.train", "SGDNesterov.step", "train.optimizer"),
        ("panograph.train", "evaluate_model", "train.val_eval"),
        ("panograph.train", "predict_scores", "train.predict"),
        ("panograph.train", "save_checkpoint", "train.ckpt_save"),
        ("panograph.train", "load_checkpoint", "train.ckpt_load"),
        ("panograph.train", "train_loop", "train.loop"),
        ("panograph.cli", "cmd_synth", "cli.synth"),
        ("panograph.cli", "cmd_reassign", "cli.reassign"),
        ("panograph.cli", "cmd_features", "cli.features"),
        ("panograph.cli", "cmd_train", "cli.train"),
        ("panograph.cli", "cmd_eval", "cli.eval"),
    ]
)


def _flops(layer, x_shape, out_shape) -> float:
    """Multiply-adds x2 of one forward call, from shapes."""
    B, C, _, N = x_shape
    O, T = out_shape[1], out_shape[2]
    name = type(layer).__name__
    if name == "SpatialGraphConv":
        return layer.K * (2.0 * B * C * T * N * N + 2.0 * B * C * O * T * N)
    if name == "Conv1x1":
        return 2.0 * B * C * O * T * N
    return 2.0 * B * C * layer.kernel * O * T * N  # TemporalConv


def _info(name: str, args, kwargs, result) -> dict | None:
    """Sizes and counts observed at the call boundary."""
    if name.endswith(".forward") and name.split(".")[-2] in COUNTED_LAYERS:
        return {"flop": _flops(args[0], args[1].shape, result.shape)}
    if name.endswith(".backward") and name.split(".")[-2] in COUNTED_LAYERS:
        # backward: one input-gradient and one weight-gradient product per forward
        # product (the SGC mask gradient mirrors its aggregation matmul)
        layer, g = args[0], args[1]
        cache_shape = layer._x.shape if hasattr(layer, "_x") else layer._cache[0].shape
        if type(layer).__name__ == "TemporalConv":
            B, CK, L = cache_shape
            return {"flop": 2 * 2.0 * B * CK * g.shape[1] * L}
        return {"flop": 2 * _flops(layer, cache_shape, g.shape)}
    if name == "nn.model.MPGCN.forward":
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        return {"training": bool(training), "batch": int(result.shape[0])}
    if name == "data_io.write":
        return {"bytes": os.path.getsize(args[0])}
    if name == "reassign.assemble":
        frames, (_, report) = args[0], result
        dets = sum(len(f.detections) for f in frames)
        runs = [m for m in report.slot_mean_track_len if m > 0]
        return {"frames": len(frames), "dets": dets, "kept": dets - sum(report.dropped_per_frame),
                "track_len": sum(runs) / len(runs) if runs else 0.0}
    if name == "graph.adjacency":
        return {"nodes": int(result.size), "nnz": int((result.A_hat != 0).sum())}
    return None


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent, thread, info]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident(), None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _info(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, and rebind names other program modules imported."""
        import importlib

        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, member = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = holder.__dict__[member]
            wrapped = self._wrap(original, span_name)
            self._set(holder, member, wrapped)
            if owner:
                continue
            for other in list(sys.modules.values()):
                if other is not module and getattr(other, "__name__", "").startswith("panograph"):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, key, wrapped)

    def _set(self, holder, key, value) -> None:
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def span_cost_s(self, calls: int = 20000) -> float:
        """Seconds one enabled wrapper adds to a call, measured on a no-op."""
        def noop(x):
            return x

        wrapped = self._wrap(noop, "trace.calibrate")
        saved, self.spans, self.enabled = self.spans, [], True
        try:
            t0 = time.perf_counter()
            for i in range(calls):
                noop(i)
            bare = time.perf_counter() - t0
            t0 = time.perf_counter()
            for i in range(calls):
                wrapped(i)
            traced = time.perf_counter() - t0
        finally:
            self.spans, self.enabled = saved, False
        return max(traced - bare, 0.0) / calls

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(spans, counts: dict, main_thread: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from spans of the timed region.

    ``counts`` holds ``clips`` (clips through synth and ingest), ``steps``
    (training steps) and ``features_workers`` (the features pool). Model
    spans are split into training (forward with training=True, and every
    backward) and inference by the nearest ``MPGCN.forward`` above them;
    file I/O under a checkpoint save/load is kept apart from clip I/O.
    """
    mode: list[str] = []
    ckpt: list[bool] = []
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _, info in spans:
        if name == "nn.model.MPGCN.forward":
            mode.append("train" if info and info["training"] else "infer")
        elif name == "nn.model.MPGCN.backward":
            mode.append("train")
        else:
            mode.append(mode[parent] if parent >= 0 else "")
        ckpt.append(name.startswith("train.ckpt") or (parent >= 0 and ckpt[parent]))
        if parent >= 0:
            child_time[parent] += t1 - t0

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    flop: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for i, (name, t0, t1, parent, _, info) in enumerate(spans):
        key = name
        if name.startswith("nn."):
            key = f"{mode[i]}:{name}"
        elif name.startswith("data_io.") and ckpt[i]:
            key = "ckpt:" + name
        total[key] = total.get(key, 0.0) + (t1 - t0)
        calls[key] = calls.get(key, 0) + 1
        self_time[key] = self_time.get(key, 0.0) + (t1 - t0) - child_time[i]
        if info and "flop" in info:
            flop[key] = flop.get(key, 0.0) + info["flop"]

    clips = max(counts["clips"], 1)
    steps = max(counts["steps"], 1)
    ms = 1e3

    def tot(key):
        return total.get(key, 0.0)

    def per_call(key):
        return tot(key) / calls[key] if calls.get(key) else 0.0

    out: dict[str, tuple[float, str]] = {}
    out["data_io.synth_ms_per_clip"] = (tot("data_io.synth") * ms / clips, "ms")
    out["data_io.write_ms_per_clip"] = (tot("data_io.write") * ms / clips, "ms")
    out["data_io.read_ms_per_clip"] = (tot("data_io.read") * ms / clips, "ms")
    written = sum(s[5]["bytes"] for i, s in enumerate(spans) if s[0] == "data_io.write" and not ckpt[i])
    out["data_io.bytes_per_clip"] = (written / clips, "B")

    assembles = [s[5] for s in spans if s[0] == "reassign.assemble"]
    dets = sum(a["dets"] for a in assembles)
    out["reassign.parse_ms_per_clip"] = (tot("reassign.parse") * ms / clips, "ms")
    out["reassign.assemble_ms_per_clip"] = (tot("reassign.assemble") * ms / clips, "ms")
    out["reassign.detections_per_frame"] = (dets / max(sum(a["frames"] for a in assembles), 1), "count")
    out["reassign.kept_share"] = (sum(a["kept"] for a in assembles) / max(dets, 1), "ratio")
    out["reassign.mean_track_len_frames"] = (
        sum(a["track_len"] for a in assembles) / max(len(assembles), 1), "frames")

    out["features.build_ms_per_clip"] = (tot("features.build") * ms / clips, "ms")
    pool_busy = sum(s[2] - s[1] for s in spans if s[4] != main_thread
                    and s[0] in ("features.build", "data_io.read", "data_io.write"))
    pool_wall = tot("cli.features") * counts["features_workers"]
    out["features.pool_busy_share"] = (pool_busy / pool_wall if pool_wall else 0.0, "ratio")

    adjacency = [s[5] for s in spans if s[0] == "graph.adjacency"]
    out["graph.build_ms"] = ((tot("graph.topology") + tot("graph.adjacency")) * ms
                             / max(len(adjacency), 1), "ms")
    out["graph.nodes"] = (float(adjacency[-1]["nodes"]) if adjacency else 0.0, "count")
    out["graph.adjacency_nnz"] = (float(adjacency[-1]["nnz"]) if adjacency else 0.0, "count")

    leaf_total = 0.0
    for layer in LEAF_LAYERS:
        fwd, bwd = f"train:nn.layers.{layer}.forward", f"train:nn.layers.{layer}.backward"
        out[f"nn.layers.{layer}.fwd_ms"] = (tot(fwd) * ms / steps, "ms")
        out[f"nn.layers.{layer}.bwd_ms"] = (tot(bwd) * ms / steps, "ms")
        out[f"nn.layers.{layer}.calls"] = ((calls.get(fwd, 0) + calls.get(bwd, 0)) / steps, "count")
        if layer in COUNTED_LAYERS:
            out[f"nn.layers.{layer}.gflop"] = (
                (flop.get(fwd, 0.0) + flop.get(bwd, 0.0)) / 1e9 / steps, "GFLOP_computed")
        leaf_total += tot(fwd) + tot(bwd)
    model_fwd = tot("train:nn.model.MPGCN.forward")
    model_bwd = tot("train:nn.model.MPGCN.backward")
    out["nn.blocks.self_ms"] = (sum(v for k, v in self_time.items()
                                    if k.startswith("train:nn.blocks.")) * ms / steps, "ms")
    out["nn.model.fwd_ms"] = (model_fwd * ms / steps, "ms")
    out["nn.model.bwd_ms"] = (model_bwd * ms / steps, "ms")
    out["nn.model.glue_ms"] = ((model_fwd + model_bwd - leaf_total) * ms / steps, "ms")
    out["nn.model.leaf_share"] = (leaf_total / (model_fwd + model_bwd) if model_fwd else 0.0, "ratio")
    infer = [s for s in spans if s[0] == "nn.model.MPGCN.forward" and not s[5]["training"]]
    out["nn.model.infer_ms_per_sample"] = (
        sum(s[2] - s[1] for s in infer) * ms / max(sum(s[5]["batch"] for s in infer), 1), "ms")

    out["train.optimizer_ms"] = (per_call("train.optimizer") * ms, "ms")
    out["train.stack_batch_ms"] = (per_call("train.stack_batch") * ms, "ms")
    out["train.val_eval_ms"] = (per_call("train.val_eval") * ms, "ms")
    out["train.ckpt_save_ms"] = (per_call("train.ckpt_save") * ms, "ms")
    out["train.ckpt_load_ms"] = (per_call("train.ckpt_load") * ms, "ms")
    for stage in ("synth", "reassign", "features"):
        out[f"cli.{stage}_s"] = (per_call(f"cli.{stage}"), "s")
    return out
