"""SGD-Nesterov training with warmup + cosine schedule, and evaluation."""
from __future__ import annotations

import dataclasses
import json
import math
import os
import typing
import zlib
from dataclasses import dataclass

import numpy as np

from . import data_io, graph
from .errors import ConfigError, FormatError, InputError, TrainingError, check_names
from .nn import MPGCN, ModelConfig, cross_entropy, softmax
from .nn.model import STREAM_ORDER


@dataclass
class TrainConfig:
    epochs: int = 65
    warmup_epochs: int = 5
    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 2e-4
    batch_size: int = 16
    seed: int = 0

    def validate(self) -> None:
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError(f"warmup_epochs must be in [0, epochs), got {self.warmup_epochs} "
                              f"with epochs {self.epochs}")
        for key, ok, want in (
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("base_lr", 0 < self.base_lr < math.inf, "finite and > 0"),
            ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
            ("weight_decay", 0 <= self.weight_decay < math.inf, "finite and >= 0"),
        ):
            if not ok:  # every comparison with nan is False
                raise ConfigError(f"{key} must be {want}, got {getattr(self, key)!r}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Linear warmup to base_lr, then cosine decay to zero."""
    if not 0 <= epoch < cfg.epochs:
        raise InputError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if epoch < cfg.warmup_epochs:
        return cfg.base_lr * (epoch + 1) / cfg.warmup_epochs
    span = cfg.epochs - cfg.warmup_epochs
    return cfg.base_lr * 0.5 * (1 + np.cos(np.pi * (epoch - cfg.warmup_epochs) / span))


class SGDNesterov:
    """v <- mu*v + g;  p <- p - lr*(g + mu*v), with g = grad + wd*p.

    Batch-norm gamma/beta are excluded from weight decay. A non-finite
    gradient anywhere raises TrainingError before any tensor moves.
    """

    def __init__(self, model: MPGCN, cfg: TrainConfig):
        self.cfg = cfg
        self.velocity = {name: np.zeros_like(p) for name, p in model.named_parameters()}

    def step(self, model: MPGCN, lr: float) -> None:
        grads = dict(model.named_grads())
        bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
        if bad:
            raise TrainingError(f"non-finite gradient in {', '.join(bad)}")
        mu = self.cfg.momentum
        for name, p in model.named_parameters():
            g = grads[name]
            if self.cfg.weight_decay and not name.endswith((".gamma", ".beta")):
                g = g + self.cfg.weight_decay * p
            v = self.velocity[name]
            v *= mu
            v += g
            p -= lr * (g + mu * v)


def is_validation_index(index: int) -> bool:
    """Deterministic 80/20 split keyed by a hash of the sample index."""
    return zlib.crc32(f"sample-{index}".encode()) % 5 == 0


def validation_mask(n: int) -> np.ndarray:
    """is_validation_index over the first n samples, as a boolean mask."""
    return np.array([is_validation_index(i) for i in range(n)], dtype=bool)


@dataclass
class Dataset:
    """Feature streams per sample, each (T, M*N', 2C), plus labels."""

    streams: list[dict[str, np.ndarray]]
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.streams)


# A z-scored training value lies within sqrt(n - 1) of 0 for n values per channel
# (Samuelson), so below 1e6 for n up to 1e12; healthy clips stay below 20.
NORMALISED_BOUND = 1e6


def stack_batch(ds: Dataset, indices, norm_stats) -> list[np.ndarray]:
    """Batch the four streams into (B, 2C, T, N) model inputs; a normalised value that is
    NaN or beyond NORMALISED_BOUND is InputError naming the sample's index and stream."""
    batch = []
    for key in STREAM_ORDER:
        x = np.stack([ds.streams[i][key] for i in indices])  # (B, T, N, 2C)
        x = np.transpose(x, (0, 3, 1, 2))
        mean, std = norm_stats[key]
        with np.errstate(over="ignore", invalid="ignore"):
            x = (x - mean[None, :, None, None]) / std[None, :, None, None]
        if not -NORMALISED_BOUND <= x.min() <= x.max() <= NORMALISED_BOUND:  # False on NaN
            first = np.flatnonzero(~(np.abs(x) <= NORMALISED_BOUND))[0]
            raise InputError(f"sample {indices[first // x[0].size]}: stream {key!r}: normalised "
                             f"value {x.flat[first]:.3g} is not within +-{NORMALISED_BOUND:g}")
        batch.append(x)
    return batch


def compute_norm_stats(ds: Dataset, indices) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-channel z-score statistics over the training split; InputError naming the
    stream if a mean or std is not finite (a coordinate near 1e200 overflows the std)."""
    stats = {}
    for key in STREAM_ORDER:
        x = np.stack([ds.streams[i][key] for i in indices])
        with np.errstate(over="ignore", invalid="ignore"):
            mean = x.mean(axis=(0, 1, 2))
            std = x.std(axis=(0, 1, 2))
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise InputError(f"stream {key!r}: mean or std over the training split is not finite")
        std[std < 1e-8] = 1.0
        stats[key] = (mean, std)
    return stats


def _batches(indices: np.ndarray, batch_size: int):
    for start in range(0, len(indices), batch_size):
        yield indices[start : start + batch_size]


def _check_dataset(ds: Dataset, cfg: ModelConfig) -> None:
    """InputError unless ``ds`` has samples, labels below cfg's class count and (as far as
    its first sample shows) streams of cfg's node and channel counts."""
    if len(ds) == 0:
        raise InputError("empty dataset")
    for label in (ds.labels.min(), ds.labels.max()):
        if not 0 <= label < cfg.num_classes:
            raise InputError(f"label {int(label)} out of range for {cfg.num_classes} classes")
    for key in STREAM_ORDER:
        shape = ds.streams[0][key].shape
        if shape[1:] != (cfg.num_nodes, 2 * cfg.in_channels):
            raise InputError(f"stream {key!r} has shape {shape}, the model takes "
                             f"(frames, {cfg.num_nodes}, {2 * cfg.in_channels})")


def build_model(cfg: ModelConfig, graph_info: dict, rng: np.random.Generator) -> MPGCN:
    """An MPGCN on the graph that ``graph_info`` names: its ``layout`` and optional
    ``inter_variant`` (default ``pairwise``); a bad graph is ConfigError "graph: ..."."""
    try:
        topo = graph.build_topology(graph_info["layout"], cfg.num_persons, cfg.joints_per_person,
                                    cfg.object_keypoints, graph_info.get("inter_variant", "pairwise"))
    except ConfigError as exc:
        raise ConfigError(f"graph: {exc}") from exc
    return MPGCN(cfg, graph.partition_and_normalize(topo).A_hat, rng)


def train_loop(
    ds: Dataset,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    graph_info: dict,
    out_dir: str | None = None,
    use_validation: bool = True,
    log_fn=None,
) -> tuple[MPGCN, dict, list[dict]]:
    """Train from scratch on the graph ``graph_info`` names (see ``build_model``);
    returns (model, norm stats, per-epoch records).

    When ``out_dir`` is set, each epoch's record is appended to ``metrics.jsonl``
    as soon as the epoch ends, and checkpoints carrying ``graph_info`` are
    written at the best validation MCA and at the end.
    """
    train_cfg.validate()
    model_cfg.validate()
    _check_dataset(ds, model_cfg)
    rng = np.random.default_rng(train_cfg.seed)
    model = build_model(model_cfg, graph_info, rng)
    optimizer = SGDNesterov(model, train_cfg)

    all_idx = np.arange(len(ds))
    val = validation_mask(len(ds)) if use_validation else np.zeros(len(ds), dtype=bool)
    val_idx, train_idx = all_idx[val], all_idx[~val]
    if len(train_idx) == 0 or len(val_idx) == 0:
        train_idx, val_idx = all_idx, all_idx
    norm_stats = compute_norm_stats(ds, train_idx)

    records = []
    best_val = -1.0
    for epoch in range(train_cfg.epochs):
        lr = lr_at(epoch, train_cfg)
        order = train_idx.copy()
        rng.shuffle(order)
        losses, correct, total = [], 0, 0
        for batch_idx in _batches(order, train_cfg.batch_size):
            streams = stack_batch(ds, batch_idx, norm_stats)
            labels = ds.labels[batch_idx]
            model.zero_grad()
            logits = model.forward(streams, training=True)
            loss, glogits = cross_entropy(logits, labels)
            model.backward(glogits)
            optimizer.step(model, lr)
            losses.append(loss)
            correct += int((logits.argmax(axis=1) == labels).sum())
            total += len(batch_idx)
        val_mca = evaluate_model(model, ds, val_idx, norm_stats, train_cfg.batch_size)["mca"]
        record = {
            "epoch": epoch,
            "lr": float(lr),
            "train_loss": float(np.mean(losses)),
            "train_mca": correct / total,
            "val_mca": val_mca,
        }
        records.append(record)
        if log_fn:
            log_fn(record)
        if out_dir:
            with open(os.path.join(out_dir, "metrics.jsonl"), "a" if epoch else "w") as fh:
                fh.write(json.dumps(record) + "\n")
            if val_mca > best_val:
                best_val = val_mca
                save_checkpoint(os.path.join(out_dir, "ckpt_best.pgt"), model, norm_stats, graph_info)
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "ckpt_final.pgt"), model, norm_stats, graph_info)
    return model, norm_stats, records


def predict_scores(model: MPGCN, ds: Dataset, indices, norm_stats, batch_size=16) -> np.ndarray:
    scores = []
    for batch_idx in _batches(np.asarray(indices), batch_size):
        streams = stack_batch(ds, batch_idx, norm_stats)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow that reaches the logits fails below
            logits = model.forward(streams, training=False)
        if not np.isfinite(logits).all():
            raise InputError(f"sample {batch_idx[0]}: logits are not finite")
        scores.append(softmax(logits))
    return np.concatenate(scores, axis=0)


def metrics_from_predictions(pred: np.ndarray, labels: np.ndarray, num_classes: int) -> dict:
    confusion = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(confusion, (labels, pred), 1)
    rows = confusion.sum(axis=1)
    seen = rows > 0
    return {
        "mca": float((pred == labels).mean()),
        "mpca": float(np.mean(confusion.diagonal()[seen] / rows[seen])) if seen.any() else 0.0,
        "confusion": confusion,
    }


def evaluate_model(model: MPGCN, ds: Dataset, indices, norm_stats, batch_size=16) -> dict:
    indices = np.asarray(indices)
    scores = predict_scores(model, ds, indices, norm_stats, batch_size)
    return metrics_from_predictions(scores.argmax(axis=1), ds.labels[indices], scores.shape[1])


def evaluate(ds: Dataset, models_and_stats: list[tuple[MPGCN, dict]]) -> dict:
    """MCA/MPCA/confusion for one model, or late fusion over several, over
    every sample; ``"val"`` holds the same metrics over the validation split
    (None when it is empty).

    Fusion averages softmax scores across checkpoints before the argmax;
    ties already resolve to the smallest class index.
    """
    if not models_and_stats:
        raise InputError("need at least one checkpoint")
    indices = np.arange(len(ds))
    num_classes = models_and_stats[0][0].config.num_classes
    for model, _ in models_and_stats:
        if model.config.num_classes != num_classes:
            raise InputError("fused checkpoints must share num_classes")
        _check_dataset(ds, model.config)
    total = sum(predict_scores(model, ds, indices, stats) for model, stats in models_and_stats)
    pred = (total / len(models_and_stats)).argmax(axis=1)
    result = metrics_from_predictions(pred, ds.labels, num_classes)
    val = validation_mask(len(ds))
    result["val"] = metrics_from_predictions(pred[val], ds.labels[val], num_classes) if val.any() else None
    return result


def save_checkpoint(path: str, model: MPGCN, norm_stats: dict, graph_info: dict) -> None:
    """One PGT1 file: the config JSON (ModelConfig fields, plus ``graph``) as the
    uint8 entry ``config``, then parameters, buffers and normalisation stats."""
    config = {**dataclasses.asdict(model.config), "graph": graph_info}
    tensors = {"config": np.frombuffer(json.dumps(config).encode(), dtype=np.uint8)}
    for name, p in model.named_parameters():
        tensors["param." + name] = p
    for name, b in model.named_buffers():
        tensors["buffer." + name] = b
    for key, (mean, std) in norm_stats.items():
        tensors[f"norm.{key}.mean"] = mean
        tensors[f"norm.{key}.std"] = std
    data_io.write_tensor_container(path, tensors)


def _read_config(path: str, tensors: dict) -> tuple[dict, dict]:
    """Pop and check the ``config`` entry: ModelConfig fields and the graph info."""
    if "config" not in tensors:
        raise FormatError(f"{path}: no config entry (a config in a separate .json file is not read)")
    try:
        fields = json.loads(tensors.pop("config").tobytes())
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on non-UTF-8 bytes
        raise FormatError(f"{path}: config: malformed ({exc})") from exc
    if not isinstance(fields, dict):
        raise FormatError(f"{path}: config: not a JSON object")
    info = fields.pop("graph", None)
    hints = typing.get_type_hints(ModelConfig)
    check_names(f"{path}: config keys", [f.name for f in dataclasses.fields(ModelConfig)], fields)
    for name, value in fields.items():
        if not isinstance(value, hints[name]) or isinstance(value, bool):  # bool is not an int
            raise FormatError(f"{path}: config: {name} must be {hints[name].__name__}, got {value!r}")
    if not (
        isinstance(info, dict) and set(info) <= {"layout", "inter_variant"}
        and isinstance(info.get("layout"), str) and isinstance(info.get("inter_variant", ""), str)
    ):
        raise FormatError(f"{path}: config: graph must be an object with a string layout and an "
                          f"optional string inter_variant, got {info!r}")
    return fields, info


def load_checkpoint(path: str) -> tuple[MPGCN, dict]:
    """Rebuild a saved model and its normalisation stats. One pass checks every entry's
    name and shape, one (2 * in_channels,) mean and std > 0 per stream, before any is
    copied. Errors name the file."""
    tensors = data_io.read_tensor_container(path)
    fields, info = _read_config(path, tensors)
    try:
        model = build_model(ModelConfig(**fields), info, np.random.default_rng(0))
    except ConfigError as exc:
        raise FormatError(f"{path}: config: {exc}") from exc
    own = {**{"param." + k: v for k, v in model.named_parameters()},
           **{"buffer." + k: v for k, v in model.named_buffers()}}
    shapes = {k: v.shape for k, v in own.items()}
    shapes.update({f"norm.{key}.{stat}": (2 * model.config.in_channels,)
                   for key in STREAM_ORDER for stat in ("mean", "std")})
    check_names(f"{path}: entries", shapes, tensors)
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise FormatError(f"{path}: entry {name!r} has shape {tensors[name].shape}, expected {shape}")
        if name.endswith(".std") and not (tensors[name] > 0).all():
            raise FormatError(f"{path}: entry {name!r} is not > 0")
    for name, value in own.items():
        value[...] = tensors[name]
    norm_stats = {key: (tensors[f"norm.{key}.mean"], tensors[f"norm.{key}.std"]) for key in STREAM_ORDER}
    return model, norm_stats
