"""SGD-Nesterov training with warmup + cosine schedule, and evaluation."""
from __future__ import annotations

import dataclasses
import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from . import data_io
from .errors import ConfigError, FormatError, InputError, TrainingError
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
            raise ConfigError("warmup_epochs must be < epochs")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")


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

    Batch-norm gamma/beta are excluded from weight decay.
    """

    def __init__(self, model: MPGCN, cfg: TrainConfig):
        self.cfg = cfg
        self.velocity = {name: np.zeros_like(p) for name, p in model.named_parameters()}

    @staticmethod
    def _decayed(name: str) -> bool:
        return not (name.endswith(".gamma") or name.endswith(".beta"))

    def step(self, model: MPGCN, lr: float) -> None:
        grads = dict(model.named_grads())
        mu = self.cfg.momentum
        for name, p in model.named_parameters():
            g = grads[name]
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient in {name}")
            if self.cfg.weight_decay and self._decayed(name):
                g = g + self.cfg.weight_decay * p
            v = self.velocity[name]
            v *= mu
            v += g
            p -= lr * (g + mu * v)


def is_validation_index(index: int) -> bool:
    """Deterministic 80/20 split keyed by a hash of the sample index."""
    return zlib.crc32(f"sample-{index}".encode()) % 5 == 0


@dataclass
class Dataset:
    """Feature streams per sample, each (T, M*N', 2C), plus labels."""

    streams: list[dict[str, np.ndarray]]
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.streams)


def stack_batch(ds: Dataset, indices, norm_stats=None) -> list[np.ndarray]:
    """Batch the four streams into (B, 2C, T, N) model inputs."""
    batch = []
    for key in STREAM_ORDER:
        x = np.stack([ds.streams[i][key] for i in indices])  # (B, T, N, 2C)
        x = np.transpose(x, (0, 3, 1, 2))
        if norm_stats is not None:
            mean, std = norm_stats[key]
            x = (x - mean[None, :, None, None]) / std[None, :, None, None]
        batch.append(x)
    return batch


def compute_norm_stats(ds: Dataset, indices) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-channel z-score statistics over the training split."""
    stats = {}
    for key in STREAM_ORDER:
        x = np.stack([ds.streams[i][key] for i in indices])
        mean = x.mean(axis=(0, 1, 2))
        std = x.std(axis=(0, 1, 2))
        std[std < 1e-8] = 1.0
        stats[key] = (mean, std)
    return stats


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    return float((pred == labels).mean())


def _batches(indices: np.ndarray, batch_size: int):
    for start in range(0, len(indices), batch_size):
        yield indices[start : start + batch_size]


def train_loop(
    ds: Dataset,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    adjacency: np.ndarray,
    out_dir: str | None = None,
    use_validation: bool = True,
    log_fn=None,
    graph_info: dict | None = None,
) -> tuple[MPGCN, dict, list[dict]]:
    """Train from scratch; returns (model, norm stats, per-epoch records).

    Checkpoints (when ``out_dir`` is set) are written at the best validation
    MCA and at the end.
    """
    train_cfg.validate()
    model_cfg.validate()
    if len(ds) == 0:
        raise InputError("empty dataset")
    if ds.labels.max() >= model_cfg.num_classes:
        raise InputError(
            f"label {int(ds.labels.max())} out of range for {model_cfg.num_classes} classes"
        )
    rng = np.random.default_rng(train_cfg.seed)
    model = MPGCN(model_cfg, adjacency, rng)
    optimizer = SGDNesterov(model, train_cfg)

    all_idx = np.arange(len(ds))
    if use_validation:
        val_idx = np.array([i for i in all_idx if is_validation_index(i)], dtype=int)
        train_idx = np.array([i for i in all_idx if not is_validation_index(i)], dtype=int)
        if len(train_idx) == 0 or len(val_idx) == 0:
            train_idx, val_idx = all_idx, all_idx
    else:
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
        if out_dir and val_mca > best_val:
            best_val = val_mca
            save_checkpoint(os.path.join(out_dir, "ckpt_best.pgt"), model, norm_stats, graph_info)
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "ckpt_final.pgt"), model, norm_stats, graph_info)
        with open(os.path.join(out_dir, "metrics.jsonl"), "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    return model, norm_stats, records


def predict_scores(model: MPGCN, ds: Dataset, indices, norm_stats, batch_size=16) -> np.ndarray:
    scores = []
    for batch_idx in _batches(np.asarray(indices), batch_size):
        streams = stack_batch(ds, batch_idx, norm_stats)
        logits = model.forward(streams, training=False)
        scores.append(softmax(logits))
    return np.concatenate(scores, axis=0)


def metrics_from_predictions(pred: np.ndarray, labels: np.ndarray, num_classes: int) -> dict:
    confusion = np.zeros((num_classes, num_classes), dtype=int)
    for t, p in zip(labels, pred):
        confusion[int(t), int(p)] += 1
    per_class = []
    for c in range(num_classes):
        row = confusion[c]
        if row.sum() > 0:
            per_class.append(row[c] / row.sum())
    return {
        "mca": _accuracy(pred, labels),
        "mpca": float(np.mean(per_class)) if per_class else 0.0,
        "confusion": confusion,
    }


def evaluate_model(model: MPGCN, ds: Dataset, indices, norm_stats, batch_size=16) -> dict:
    indices = np.asarray(indices)
    scores = predict_scores(model, ds, indices, norm_stats, batch_size)
    return metrics_from_predictions(scores.argmax(axis=1), ds.labels[indices], scores.shape[1])


def evaluate(
    ds: Dataset,
    models_and_stats: list[tuple[MPGCN, dict]],
    fuse: bool = False,
    batch_size: int = 16,
) -> dict:
    """MCA/MPCA/confusion for one model, or late fusion over several.

    Fusion averages softmax scores across checkpoints before the argmax;
    ties already resolve to the smallest class index.
    """
    if len(ds) == 0:
        raise InputError("empty dataset")
    if not models_and_stats:
        raise InputError("need at least one checkpoint")
    if not fuse and len(models_and_stats) > 1:
        raise InputError("multiple checkpoints require --fuse")
    indices = np.arange(len(ds))
    num_classes = models_and_stats[0][0].config.num_classes
    for model, _ in models_and_stats:
        if model.config.num_classes != num_classes:
            raise InputError("fused checkpoints must share num_classes")
    total = np.zeros((len(ds), num_classes))
    for model, stats in models_and_stats:
        total += predict_scores(model, ds, indices, stats, batch_size)
    total /= len(models_and_stats)
    return metrics_from_predictions(total.argmax(axis=1), ds.labels, num_classes)


def save_checkpoint(path: str, model: MPGCN, norm_stats: dict, graph_info: dict | None = None) -> None:
    tensors: dict[str, np.ndarray] = {}
    for name, p in model.named_parameters():
        tensors["param." + name] = p
    for name, b in model.named_buffers():
        tensors["buffer." + name] = b
    for key, (mean, std) in norm_stats.items():
        tensors[f"norm.{key}.mean"] = mean
        tensors[f"norm.{key}.std"] = std
    data_io.write_tensor_container(path, tensors)
    sidecar = dataclasses.asdict(model.config)
    if graph_info:
        sidecar["graph"] = graph_info
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1)


def load_checkpoint(path: str, adjacency: np.ndarray | None = None) -> tuple[MPGCN, dict]:
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    info = sidecar.pop("graph", None)
    expected = {f.name for f in dataclasses.fields(ModelConfig)}
    keys = set(sidecar)
    if keys != expected:
        raise FormatError(
            f"{path}.json: config keys differ from ModelConfig: "
            f"missing {sorted(expected - keys)}, unknown {sorted(keys - expected)}"
        )
    cfg = ModelConfig(**sidecar)
    if adjacency is None:
        if info is None:
            raise InputError(f"{path}: checkpoint carries no graph info; pass an adjacency")
        from . import graph as graph_mod

        topo = graph_mod.build_topology(
            info["layout"],
            cfg.num_persons,
            cfg.joints_per_person,
            cfg.object_keypoints,
            inter_variant=info.get("inter_variant", "pairwise"),
        )
        adjacency = graph_mod.partition_and_normalize(topo).A_hat
    tensors = data_io.read_tensor_container(path)
    model = MPGCN(cfg, adjacency, np.random.default_rng(0))
    params = {k[len("param."):]: v for k, v in tensors.items() if k.startswith("param.")}
    buffers = {k[len("buffer."):]: v for k, v in tensors.items() if k.startswith("buffer.")}
    model.load_state(params, buffers)
    norm_stats = {}
    for key in STREAM_ORDER:
        norm_stats[key] = (tensors[f"norm.{key}.mean"], tensors[f"norm.{key}.std"])
    return model, norm_stats
