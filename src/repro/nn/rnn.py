"""Multi-layer LSTM with truncated-free full BPTT.

Parameter naming follows torch (``weight_ih_l0``, ``weight_hh_l0``,
``bias_ih_l0``, ``bias_hh_l0``, …) because the paper's per-layer figures
refer to names like ``rnn.weight_hh_l0`` and ``rnn.bias_ih_l1``.
Gate layout inside the stacked ``4H`` dimension is torch's ``i, f, g, o``.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module
from .parameter import Parameter

__all__ = ["LSTM"]


class LSTM(Module):
    """Stacked LSTM over ``(N, T, D)`` input; returns the top layer's final
    hidden state ``(N, H)``.

    Classification models feed that hidden state to a linear head, which is
    exactly the KWS workload shape used in the paper.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        h = hidden_size
        for layer in range(num_layers):
            in_dim = input_size if layer == 0 else hidden_size
            self.register_parameter(
                f"weight_ih_l{layer}", Parameter(init.lstm_uniform((4 * h, in_dim), h, rng))
            )
            self.register_parameter(
                f"weight_hh_l{layer}", Parameter(init.lstm_uniform((4 * h, h), h, rng))
            )
            self.register_parameter(
                f"bias_ih_l{layer}", Parameter(init.lstm_uniform((4 * h,), h, rng))
            )
            self.register_parameter(
                f"bias_hh_l{layer}", Parameter(init.lstm_uniform((4 * h,), h, rng))
            )
        self._cache: tuple | None = None

    # ------------------------------------------------------------------
    def _params(self, layer: int) -> tuple[Parameter, Parameter, Parameter, Parameter]:
        return (
            self._parameters[f"weight_ih_l{layer}"],
            self._parameters[f"weight_hh_l{layer}"],
            self._parameters[f"bias_ih_l{layer}"],
            self._parameters[f"bias_hh_l{layer}"],
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        _, _, d = x.shape
        if d != self.input_size:
            raise ValueError(f"expected input size {self.input_size}, got {d}")
        params = [
            tuple(p.data[None] for p in self._params(layer))
            for layer in range(self.num_layers)
        ]
        self._cache = None  # release the previous step cache before building one
        out, cache = F.lstm_forward(x[None], params)
        self._cache = cache if self.training else None
        return out[0]

    def backward(self, grad_h_last: np.ndarray) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("LSTM.backward called before forward")
        # The stacked step cache holds O(T * layers) activations — by far
        # the largest retained state; drop it once consumed.
        cache, self._cache = self._cache, None
        quads = [self._params(layer) for layer in range(self.num_layers)]
        dx = F.lstm_backward(
            grad_h_last[None],
            [tuple(p.data[None] for p in quad) for quad in quads],
            [tuple(p.grad[None] for p in quad) for quad in quads],
            cache,
            want_dx=self.compute_dx,
        )
        return None if dx is None else dx[0]
