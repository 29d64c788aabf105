"""Central finite-difference verification of the hand-written backward passes.

Every check is one central difference along a direction d, compared with the
analytic directional derivative: one-hot directions at single entries for
isolated layers, and random unit directions per tensor or per module for the
composed model (one direction probes a whole gradient tensor with two
forward evaluations).
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import graph
from .nn import (
    BasicBlock,
    BatchNorm,
    Conv1x1,
    Linear,
    MaxPoolT,
    MPGCN,
    ModelConfig,
    MultiScaleTCN,
    ReLU,
    SpatialGraphConv,
    STPAttention,
    TemporalConv,
    cross_entropy,
)
from .nn.core import Module

H = 1e-5
ABS_FLOOR = 1e-7  # below this, analytic and numeric are both numerically zero


def freeze_kinks(module: Module, frozen: bool = True) -> None:
    """Pin every ReLU mask, max-pool tap and attention gate at their current values:
    ``Module._freeze_kinks`` on ``module`` and every module below it.

    The analytic backward pass differentiates the piecewise-linear branch
    selected by the unperturbed forward pass; an O(h) FD probe that lands a
    pre-activation on the other side of a kink measures a different branch
    and reports a spurious mismatch.  Freezing the branch decisions makes
    the probed function smooth, so FD and the analytic gradient agree to
    truncation error.  Callers must run one training forward before freezing.
    """
    module._freeze_kinks = frozen
    for _, child in module._children:
        freeze_kinks(child, frozen)


class Coverage:
    """Counts FD checks, and the floored ones: |FD| and |analytic| both <= ABS_FLOOR."""

    def __init__(self):
        self.checks = self.floored = 0

    def error(self, fd: float, analytic: float) -> float:
        self.checks += 1
        self.floored += int(max(abs(fd), abs(analytic)) <= ABS_FLOOR)
        diff = abs(fd - analytic)
        if not math.isfinite(diff):  # a NaN error would compare below every tolerance
            return math.inf
        return 0.0 if diff <= ABS_FLOOR else diff / max(abs(fd), abs(analytic))


def _probe(
    loss_fn: Callable[[], float],
    groups: list[tuple[str, list[tuple[np.ndarray, np.ndarray | float]], float]],
    coverage: Coverage,
) -> dict[str, float]:
    """Worst relative FD error per name over the groups ``(name, pieces, analytic)``.

    ``pieces`` pairs flat views of the probed tensors with their parts of a
    direction d, and ``analytic`` is the analytic gradient's dot product with
    d. Each group compares (L(θ + h·d) - L(θ - h·d)) / 2h with it; the saved
    values are written back afterwards, so repeated probes never drift.
    """
    errors: dict[str, float] = {}
    for name, pieces, analytic in groups:
        saved = [flat.copy() for flat, _ in pieces]
        for flat, d in pieces:
            flat += H * d
        lp = loss_fn()
        for flat, d in pieces:
            flat -= 2 * H * d
        lm = loss_fn()
        for (flat, _), orig in zip(pieces, saved):
            flat[...] = orig
        errors[name] = max(errors.get(name, 0.0), coverage.error((lp - lm) / (2 * H), analytic))
    return errors


def check_layer(
    module: Module,
    x: np.ndarray,
    rng: np.random.Generator,
    max_entries: int | None = 6,
    coverage: Coverage | None = None,
) -> dict[str, float]:
    """Entrywise FD errors of one layer's parameters and of its input ``x``.

    The loss is a random linear readout of the output, so it is scalar for
    any layer; kinks are frozen at the first forward pass. The input's
    error is keyed ``"input"``.
    """
    y = module.forward(x, training=True)
    freeze_kinks(module)
    probe = rng.standard_normal(y.shape)
    module.zero_grad()
    gx = module.backward(probe)
    grads = dict(module.named_grads())
    tensors = [(name, p, grads[name]) for name, p in module.named_parameters()] + [("input", x, gx)]
    groups = []
    for name, tensor, grad in tensors:
        flat, g = tensor.reshape(-1), grad.reshape(-1)
        if max_entries is None or flat.size <= max_entries:
            indices = np.arange(flat.size)
        else:
            indices = rng.choice(flat.size, size=max_entries, replace=False)
        groups += [(name, [(flat[i : i + 1], 1.0)], g[i]) for i in indices]

    def loss_fn() -> float:
        return float((module.forward(x, training=True) * probe).sum())

    return _probe(loss_fn, groups, coverage or Coverage())


def tiny_adjacency(num_persons=2, num_joints=3):
    topo = graph.build_topology("chain", num_persons, num_joints, inter_variant="pairwise")
    return graph.partition_and_normalize(topo).A_hat


def layer_suite(seed: int, coverage: Coverage) -> dict[str, float]:
    """Entrywise FD errors for every layer type in isolation.

    Each layer reports its worst parameter error under its own name and its
    input error under ``<name>.input``.
    """
    rng = np.random.default_rng(seed)
    B, T, M, Np = 2, 5, 2, 3
    N = M * Np
    A = tiny_adjacency(M, Np)
    results: dict[str, float] = {}

    def run(name: str, module: Module, x_shape: tuple[int, ...], max_entries=6, shift=0.0):
        x = rng.standard_normal(x_shape) + shift
        errs = check_layer(module, x, rng, max_entries, coverage)
        results[name + ".input"] = errs.pop("input")
        if errs:
            results[name] = max(errs.values())

    run("sgc", SpatialGraphConv(4, 3, A, Np, rng), (B, 4, T, N))
    run("conv1x1", Conv1x1(4, 3, rng), (B, 4, T, N))
    run("tconv_d1", TemporalConv(3, 4, rng, dilation=1), (B, 3, T, N))
    run("tconv_d2_s2", TemporalConv(3, 4, rng, dilation=2, stride=2), (B, 3, T, N))
    run("maxpool", MaxPoolT(stride=2), (B, 4, T, N))
    run("batchnorm", BatchNorm(4), (B, 4, T, N))
    run("attention", STPAttention(8, M, Np, rng), (B, 8, T, N))
    run("mstcn", MultiScaleTCN(4, 8, rng, stride=2), (B, 4, T, N))
    run("basic_block", BasicBlock(4, 8, A, M, Np, rng, stride=2), (B, 4, T, N))
    run("linear", Linear(6, 3, rng), (B, 6), max_entries=None)
    run("relu", ReLU(), (B, 4, T, N), shift=0.1)
    return results


def tiny_model_config(num_classes: int = 5) -> ModelConfig:
    base = ModelConfig(
        num_persons=2,
        joints_per_person=3,
        object_keypoints=0,
        num_frames=4,
        num_classes=num_classes,
        in_channels=3,
    )
    return base.scaled(4)


def model_suite(seed: int, group_by_module: bool, coverage: Coverage) -> dict[str, float]:
    """Random-direction FD errors for the composed tiny model.

    One unit direction per parameter tensor; with ``group_by_module``, one per
    leaf module spanning all its tensors (two forward evaluations per module).
    """
    rng = np.random.default_rng(seed)
    cfg = tiny_model_config()
    A = tiny_adjacency(cfg.num_persons, cfg.joints_per_person)
    model = MPGCN(cfg, A, rng)
    B = 1
    labels = rng.integers(0, cfg.num_classes, size=B)
    streams = [
        rng.standard_normal((B, 2 * cfg.in_channels, cfg.num_frames, cfg.num_nodes))
        for _ in range(4)
    ]
    model.forward(streams, training=True)
    freeze_kinks(model)

    def loss_fn() -> float:
        logits = model.forward(streams, training=True)
        loss, _ = cross_entropy(logits, labels)
        return loss

    model.zero_grad()
    model.backward(cross_entropy(model.forward(streams, training=True), labels)[1])
    params, grads = dict(model.named_parameters()), dict(model.named_grads())
    members: dict[str, list[str]] = {}
    for name in params:
        members.setdefault(name.rsplit(".", 1)[0] if group_by_module else name, []).append(name)
    groups = []
    for gname, names in members.items():
        views = [params[name].reshape(-1) for name in names]
        d = rng.standard_normal(sum(v.size for v in views))
        d /= np.linalg.norm(d)
        parts = np.split(d, np.cumsum([v.size for v in views])[:-1])
        dot = sum(float(grads[name].reshape(-1) @ part) for name, part in zip(names, parts))
        groups.append((gname, list(zip(views, parts)), dot))
    return _probe(loss_fn, groups, coverage)


def run_full_suite(
    seed: int, thorough: bool = True, coverage: Coverage | None = None
) -> tuple[dict[str, float], float]:
    """Layer and model checks for one seed; returns (per-check errors, max).

    ``thorough=False`` swaps the model check's per-tensor directions for
    per-module ones (every parameter still perturbed, far fewer forwards).
    """
    coverage = coverage or Coverage()
    errors = layer_suite(seed, coverage)
    model_errors = model_suite(seed, not thorough, coverage)
    errors["model"] = max(model_errors.values())
    return errors, max(errors.values())
