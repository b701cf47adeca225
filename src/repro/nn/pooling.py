"""Spatial pooling layers.

Pooling acts on the last two (spatial) axes and broadcasts over every
leading axis, so the same layer serves ``(N, C, H, W)`` serial batches and
the cohort program's ``(M, N, C, H, W)`` member stacks.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


def _check_kernel(kernel_size: int) -> int:
    if kernel_size < 1:
        raise ValueError("kernel_size must be >= 1")
    return kernel_size


class MaxPool2d(Module):
    """Non-overlapping max pooling (``stride == kernel_size``).

    Inputs whose spatial dims are not multiples of the kernel are truncated,
    matching torch's floor-mode behaviour. Tied maxima split the gradient
    evenly (:func:`repro.nn.functional.maxpool2d_backward`).
    """

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = _check_kernel(kernel_size)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, cache = F.maxpool2d_forward(x, self.kernel_size)
        self._cache = cache if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("MaxPool2d.backward called before forward")
        cache, self._cache = self._cache, None
        return F.maxpool2d_backward(grad_out, self.kernel_size, cache)


class AvgPool2d(Module):
    """Non-overlapping average pooling."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = _check_kernel(kernel_size)
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        *lead, h, w = x.shape
        self._x_shape = x.shape
        windows = x[..., : (h // k) * k, : (w // k) * k].reshape(
            *lead, h // k, k, w // k, k
        )
        return windows.mean(axis=(-3, -1))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        *lead, h, w = self._x_shape
        oh, ow = grad_out.shape[-2:]
        g = grad_out / (k * k)
        grad = np.zeros(self._x_shape, dtype=grad_out.dtype)
        expanded = np.broadcast_to(
            g[..., :, None, :, None], (*lead, oh, k, ow, k)
        )
        grad[..., : oh * k, : ow * k] = expanded.reshape(*lead, oh * k, ow * k)
        return grad


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, yielding ``(N, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(-2, -1))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        h, w = self._x_shape[-2:]
        g = grad_out / (h * w)
        return np.broadcast_to(g[..., None, None], self._x_shape).astype(
            grad_out.dtype
        ).copy()
