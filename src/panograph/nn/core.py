"""Minimal module system: parameter/buffer registry with manual backward."""
from __future__ import annotations

from typing import Iterator

import numpy as np


class Module:
    """Base class for layers with hand-written forward/backward.

    Subclasses register learnable tensors with :meth:`param` (each gets a
    same-shaped gradient accumulator) and non-learnable state such as
    batch-norm running statistics with :meth:`buffer`. Composite modules
    register children with :meth:`add`; parameter names are dot-joined.
    """

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: list[tuple[str, "Module"]] = []

    def param(self, name: str, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        self._params[name] = value
        self._grads[name] = np.zeros_like(value)
        return value

    def buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        self._buffers[name] = value
        return value

    def add(self, name: str, module: "Module") -> "Module":
        self._children.append((name, module))
        return module

    def _walk(self, attr: str, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, value in getattr(self, attr).items():
            yield prefix + name, value
        for child_name, child in self._children:
            yield from child._walk(attr, prefix + child_name + ".")

    def named_parameters(self) -> Iterator[tuple[str, np.ndarray]]:
        return self._walk("_params")

    def named_grads(self) -> Iterator[tuple[str, np.ndarray]]:
        return self._walk("_grads")

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        return self._walk("_buffers")

    def zero_grad(self) -> None:
        for _, g in self.named_grads():
            g[...] = 0.0

    def load_state(self, params: dict[str, np.ndarray], buffers: dict[str, np.ndarray] | None = None) -> None:
        own = dict(self.named_parameters())
        for name, value in params.items():
            own[name][...] = value
        if buffers:
            own_b = dict(self.named_buffers())
            for name, value in buffers.items():
                own_b[name][...] = value

    def num_parameters(self) -> int:
        return sum(p.size for _, p in self.named_parameters())

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)
