"""Minimal module system: parameter/buffer registry with manual backward."""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..errors import ContractError


class Module:
    """Base class for layers with hand-written forward/backward.

    Subclasses register learnable tensors with :meth:`param` (each gets a
    same-shaped gradient accumulator) and non-learnable state such as
    batch-norm running statistics with :meth:`buffer`. Composite modules
    register children with :meth:`add`; parameter names are dot-joined. A
    training forward keeps what its backward reads in ``_cache``; an eval
    forward (``training=False``) keeps nothing there.
    """

    # True pins the kinks of the last training forward (ReLU masks, max-pool taps,
    # attention gates) for a finite-difference probe; the layers that have them read it.
    _freeze_kinks = False

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: list[tuple[str, "Module"]] = []
        self._cache = None

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

    def num_parameters(self) -> int:
        return sum(p.size for _, p in self.named_parameters())

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hold_input(self, x) -> None:
        """Put back the input a training forward cached as ``_cache[0]``, or drop it (None):
        for a block that rebuilds it. The rest of the cache stays."""
        self._cache = (x,) + self._saved()[1:]

    def _saved(self):
        """``_cache`` for backward; ContractError if the last forward was eval."""
        if self._cache is None:
            raise ContractError(f"{type(self).__name__}.backward needs a training forward first")
        return self._cache


_SCRATCH: dict[str, np.ndarray] = {}


def workspace(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A scratch array that never leaves a call: a view of the first prod(shape)
    entries of one flat float64 buffer per name, grown to the largest request.

    A freed buffer of many megabytes goes back to the OS, and a fresh one
    faults its pages in again. Contents are stale. Views alive together need
    distinct names; uses that never overlap share one ("grad", the SGC's and
    the TCN's backward scratch). The layers call it from one thread at a time.
    """
    size = math.prod(shape)
    buf = _SCRATCH.get(name)
    if buf is None or buf.size < size:
        buf = _SCRATCH[name] = np.empty(size)
    return buf[:size].reshape(shape)


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)
