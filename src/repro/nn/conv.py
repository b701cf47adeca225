"""2-D convolution via im2col + GEMM (:func:`repro.nn.functional.conv2d_forward`)."""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module
from .parameter import Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """Convolution over ``(N, C, H, W)`` inputs: the shared conv kernel
    with a member axis of one — per iteration, one strided-window gather
    plus one batched GEMM.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
            )
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {x.shape[1]}")
        bias = None if self.bias is None else self.bias.data[None]
        out, cache = F.conv2d_forward(
            x[None], self.weight.data[None], bias, self.stride, self.padding
        )
        self._cache = cache if self.training else None
        return out[0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("Conv2d.backward called before forward")
        # The im2col buffer in the cache is the largest per-layer
        # allocation; drop it as soon as the gradients are computed.
        cache, self._cache = self._cache, None
        dw, db, dx = F.conv2d_backward(
            grad_out[None], self.weight.data[None], cache, want_dx=self.compute_dx
        )
        self.weight.grad += dw[0]
        if self.bias is not None:
            self.bias.grad += db[0]
        return None if dx is None else dx[0]
