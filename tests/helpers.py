"""Shared test utilities: numerical gradient checking for the NN substrate."""

from __future__ import annotations

import numpy as np

from repro.nn import Module


def numeric_grad_wrt_input(
    module: Module, x: np.ndarray, loss_weights: np.ndarray, eps: float = 1e-3
) -> np.ndarray:
    """Central-difference gradient of ``sum(module(x) * loss_weights)`` w.r.t. x.

    float32 forward passes limit precision, so callers should compare with a
    loose tolerance (we use rtol≈2e-2 against analytic gradients).
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float((module(x) * loss_weights).sum())
        flat[i] = orig - eps
        lo = float((module(x) * loss_weights).sum())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def numeric_grad_wrt_params(
    module: Module, x: np.ndarray, loss_weights: np.ndarray, eps: float = 1e-3
) -> dict[str, np.ndarray]:
    """Central-difference gradients of the weighted-output loss w.r.t. every
    parameter of the module."""
    grads: dict[str, np.ndarray] = {}
    for name, param in module.named_parameters():
        g = np.zeros_like(param.data, dtype=np.float64)
        flat = param.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float((module(x) * loss_weights).sum())
            flat[i] = orig - eps
            lo = float((module(x) * loss_weights).sum())
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads[name] = g
    return grads


def analytic_grads(
    module: Module, x: np.ndarray, loss_weights: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Analytic input/parameter gradients via the module's backward pass."""
    module.zero_grad()
    module(x)
    grad_in = module.backward(loss_weights.astype(np.float32))
    param_grads = {name: p.grad.copy() for name, p in module.named_parameters()}
    return grad_in, param_grads


def assert_grads_close(
    module: Module,
    x: np.ndarray,
    *,
    rtol: float = 2e-2,
    atol: float = 2e-3,
    seed: int = 0,
) -> None:
    """Full gradient check (inputs + parameters) against central differences."""
    rng = np.random.default_rng(seed)
    out = module(x)
    loss_weights = rng.normal(size=out.shape).astype(np.float32)

    grad_in, param_grads = analytic_grads(module, x, loss_weights)
    num_in = numeric_grad_wrt_input(module, x, loss_weights)
    np.testing.assert_allclose(grad_in, num_in, rtol=rtol, atol=atol)

    num_params = numeric_grad_wrt_params(module, x, loss_weights)
    for name, num in num_params.items():
        np.testing.assert_allclose(
            param_grads[name], num, rtol=rtol, atol=atol,
            err_msg=f"parameter gradient mismatch for {name}",
        )


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """Reference sigmoid: the sign-split form ``F.sigmoid`` replaced —
    ``1 / (1 + e⁻ˣ)`` on ``x ≥ 0`` and ``eˣ / (1 + eˣ)`` elsewhere, each
    over a boolean-mask gather."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
