"""Stateless numerical kernels shared by layers and losses.

Everything here is vectorised NumPy operating on ``float32``; these are the
hot paths of the reproduction, so the implementations avoid Python-level
loops over batch or spatial dimensions (the im2col transform trades memory
for a single large GEMM, the standard CPU strategy for small convnets).

The layer kernels are the only implementation of their layers: the serial
modules (:mod:`repro.nn.conv`, :mod:`repro.nn.layers`, …) call them with a
member axis of one, the batched cohort program (:mod:`repro.nn.cohort`)
with one slot per client.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "relu",
    "relu_grad",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "conv_output_size",
    "im2col",
    "col2im",
    "linear_forward",
    "linear_backward",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "group_norm_forward",
    "group_norm_backward",
    "lstm_forward",
    "lstm_backward",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """d(relu)/dx — masks the upstream gradient where the input was ≤ 0."""
    return grad_out * (x > 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    # Split by sign to stay overflow-free in float32.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Elementwise hyperbolic tangent."""
    return np.tanh(x)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stabilised softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stabilised log-softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))




# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def conv_output_size(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    """Spatial output size of a ``k×k`` convolution over an ``h×w`` input."""
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv geometry yields empty output: input {h}x{w}, kernel {k}x{k}, "
            f"stride {stride}, pad {pad}"
        )
    return out_h, out_w


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into columns ``(N, C*k*k, out_h*out_w)``.

    Row ``c·k² + a·k + b`` holds input channel ``c`` at kernel offset
    ``(a, b)``. The gather is a strided window view over the padded input,
    copied once into a C-contiguous column tensor — the layout BLAS
    consumes directly.
    """
    n, c, h, w = x.shape
    out_h, out_w = conv_output_size(h, w, k, stride, pad)
    if pad > 0:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x
        x = padded
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k, k, out_h, out_w),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    return windows.reshape(n, c * k * k, out_h * out_w)


def col2im(
    cols: np.ndarray, x_shape: tuple[int, int, int, int], k: int, stride: int, pad: int
) -> np.ndarray:
    """Fold columns back into an input-shaped gradient, summing overlaps.

    This is the adjoint of :func:`im2col` — exactly what the conv backward
    pass needs for the input gradient. The fold is ``k²`` strided
    slice-adds, one per kernel offset ``(a, b)``, in ascending offset order:
    every element receives its overlapping contributions in the order an
    element-wise scatter over the column rows would add them, so the sums
    are bitwise those of that scatter.
    """
    n, c, h, w = x_shape
    out_h, out_w = conv_output_size(h, w, k, stride, pad)
    d = cols.reshape(n, c, k, k, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for a in range(k):
        for b in range(k):
            padded[
                :, :, a : a + stride * out_h : stride, b : b + stride * out_w : stride
            ] += d[:, :, a, b]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


# ----------------------------------------------------------------------
# Layer kernels
#
# Tensors carry a leading *member* axis ``C``: a cohort of M same-shape
# client models runs as ``C = M``, a single serial layer as ``C = 1``
# (``x[None]``). Every contraction is a broadcast-batched ``np.matmul``, so
# member ``i`` of a cohort call computes exactly what a ``C = 1`` call on
# its slice computes. Each ``*_forward`` returns ``(out, cache)``; the
# matching ``*_backward`` consumes the cache and returns the parameter
# gradients plus the input gradient, or ``None`` for the latter when
# ``want_dx`` is false (a model's first layer: nothing reads it).
# ----------------------------------------------------------------------
def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
) -> np.ndarray:
    """``(C, N, in) @ (C, out, in)ᵀ + (C, out)`` → ``(C, N, out)``."""
    out = np.matmul(x, weight.transpose(0, 2, 1))
    if bias is not None:
        out += bias[:, None, :]
    return out


def linear_backward(
    g: np.ndarray, x: np.ndarray, weight: np.ndarray, *, want_dx: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(dW, db, dx)`` of :func:`linear_forward` given the output grad."""
    dw = np.matmul(g.transpose(0, 2, 1), x)
    db = g.sum(axis=1)
    return dw, db, np.matmul(g, weight) if want_dx else None


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
) -> tuple[np.ndarray, tuple]:
    """Convolution of ``(C, N, ch, H, W)`` by ``(C, F, ch, k, k)`` filters.

    The member and batch axes fold into the im2col gather, then the filter
    bank contraction is one broadcast-batched matmul
    ``(C, 1, F, K) @ (C, N, K, L)``.
    """
    c, n, ch, h, w = x.shape
    f, k = weight.shape[1], weight.shape[-1]
    cols = im2col(x.reshape(c * n, ch, h, w), k, stride, pad)
    cols = cols.reshape(c, n, cols.shape[1], cols.shape[2])  # (C, N, K, L)
    out = np.matmul(weight.reshape(c, f, -1)[:, None], cols)
    if bias is not None:
        out += bias[:, None, :, None]
    out_h, out_w = conv_output_size(h, w, k, stride, pad)
    return out.reshape(c, n, f, out_h, out_w), (cols, x.shape, stride, pad)


def conv2d_backward(
    g: np.ndarray, weight: np.ndarray, cache: tuple, *, want_dx: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(dW, db, dx)`` of :func:`conv2d_forward`.

    ``dx`` is ``col2im(Wᵀ·g)`` for every stride and padding.
    """
    cols, x_shape, stride, pad = cache
    c, n = g.shape[0], g.shape[1]
    f, k = weight.shape[1], weight.shape[-1]
    gf = g.reshape(c, n, f, -1)  # (C, N, F, L)
    dw = np.matmul(gf, cols.transpose(0, 1, 3, 2)).sum(axis=1)  # (C, F, K)
    db = gf.sum(axis=(1, 3))
    if not want_dx:
        return dw.reshape(weight.shape), db, None
    dcols = np.matmul(weight.reshape(c, f, -1).transpose(0, 2, 1)[:, None], gf)
    dx = col2im(
        dcols.reshape(c * n, dcols.shape[2], dcols.shape[3]),
        (c * n,) + tuple(x_shape[2:]),
        k,
        stride,
        pad,
    )
    return dw.reshape(weight.shape), db, dx.reshape(x_shape)


def maxpool2d_forward(x: np.ndarray, k: int) -> tuple[np.ndarray, tuple]:
    """Non-overlapping ``k×k`` max pooling over the last two axes.

    Works over the ``k²`` strided window slices (``x[..., i::k, j::k]``,
    taken as integer indices of a ``(..., oh, k, ow, k)`` view): the slice
    reductions run over whole blocks instead of a doubly-strided window
    axis pair. Trailing rows/columns that do not fill a window are dropped
    (floor mode). The cache marks, per slice, the positions equal to the
    window max, and counts the ties.
    """
    *lead, h, w = x.shape
    oh, ow = h // k, w // k
    windows = x[..., : oh * k, : ow * k].reshape(*lead, oh, k, ow, k)
    slices = [windows[..., :, i, :, j] for i in range(k) for j in range(k)]
    out = slices[0]
    for s in slices[1:]:
        out = np.maximum(out, s)
    masks = [s == out for s in slices]
    ties = masks[0].astype(x.dtype)
    for m in masks[1:]:
        ties += m
    return out, (masks, ties, x.shape)


def maxpool2d_backward(g: np.ndarray, k: int, cache: tuple) -> np.ndarray:
    """Input gradient of :func:`maxpool2d_forward`.

    The gradient splits evenly among tied maxima, so the pooled gradient
    sum is conserved. ``ties`` is a small exact integer, so the float32
    division equals the float64 division rounded back to float32.
    """
    masks, ties, x_shape = cache
    gs = g / ties
    grad = np.zeros(x_shape, dtype=g.dtype)
    sub = grad[..., : ties.shape[-2] * k, : ties.shape[-1] * k]
    for idx, mask in enumerate(masks):
        i, j = divmod(idx, k)
        np.copyto(sub[..., i::k, j::k], gs, where=mask)
    return grad


def group_norm_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, groups: int, eps: float
) -> tuple[np.ndarray, tuple]:
    """Group normalisation of ``(C, N, ch, H, W)`` with ``(C, ch)`` affine."""
    c, n, ch, h, w = x.shape
    grouped = x.reshape(c, n, groups, ch // groups, h, w)
    mean = grouped.mean(axis=(3, 4, 5), keepdims=True)
    var = grouped.var(axis=(3, 4, 5), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = ((grouped - mean) * inv_std).reshape(x.shape)
    out = weight[:, None, :, None, None] * x_hat + bias[:, None, :, None, None]
    return out, (x_hat, inv_std, groups)


def group_norm_backward(
    g: np.ndarray, weight: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dγ, dβ, dx)`` of :func:`group_norm_forward`."""
    x_hat, inv_std, groups = cache
    c, n, ch, h, w = x_hat.shape
    m = (ch // groups) * h * w  # elements per group per sample
    dw = (g * x_hat).sum(axis=(1, 3, 4))
    db = g.sum(axis=(1, 3, 4))
    gy = (g * weight[:, None, :, None, None]).reshape(c, n, groups, ch // groups, h, w)
    xh = x_hat.reshape(gy.shape)
    sum_gy = gy.sum(axis=(3, 4, 5), keepdims=True)
    sum_gyxh = (gy * xh).sum(axis=(3, 4, 5), keepdims=True)
    dx = (inv_std / m) * (m * gy - sum_gy - xh * sum_gyxh)
    return dw, db, dx.reshape(x_hat.shape)


def lstm_forward(
    x: np.ndarray, params: list[tuple[np.ndarray, ...]]
) -> tuple[np.ndarray, tuple]:
    """Stacked LSTM over ``(C, N, T, D)``; returns the top layer's final
    hidden state ``(C, N, H)``.

    ``params[l]`` is layer ``l``'s ``(W_ih, W_hh, b_ih, b_hh)``, gates in
    torch's ``i, f, g, o`` order. The python time loop is inherently
    sequential; each step's gate pre-activation is two batched matmuls plus
    the summed bias.
    """
    c, n, t_steps, _ = x.shape
    h_dim = params[0][1].shape[-1]
    cache: list[list[dict]] = []
    layer_input = x
    for w_ih, w_hh, b_ih, b_hh in params:
        w_ih_t = w_ih.transpose(0, 2, 1)
        w_hh_t = w_hh.transpose(0, 2, 1)
        bias = (b_ih + b_hh)[:, None, :]
        h = np.zeros((c, n, h_dim), dtype=np.float32)
        cc = np.zeros((c, n, h_dim), dtype=np.float32)
        steps: list[dict] = []
        outputs = np.empty((c, n, t_steps, h_dim), dtype=np.float32)
        for t in range(t_steps):
            x_t = layer_input[:, :, t, :]
            z = np.matmul(x_t, w_ih_t) + np.matmul(h, w_hh_t) + bias
            i_g = sigmoid(z[..., :h_dim])
            f_g = sigmoid(z[..., h_dim : 2 * h_dim])
            g_g = np.tanh(z[..., 2 * h_dim : 3 * h_dim])
            o_g = sigmoid(z[..., 3 * h_dim :])
            c_new = f_g * cc + i_g * g_g
            tanh_c = np.tanh(c_new)
            h_new = o_g * tanh_c
            steps.append(
                {
                    "x": x_t, "h_prev": h, "c_prev": cc,
                    "i": i_g, "f": f_g, "g": g_g, "o": o_g, "tanh_c": tanh_c,
                }
            )
            h, cc = h_new, c_new
            outputs[:, :, t, :] = h_new
        cache.append(steps)
        layer_input = outputs
    return layer_input[:, :, -1, :], (cache, x.shape)


def lstm_backward(
    grad_h_last: np.ndarray,
    params: list[tuple[np.ndarray, ...]],
    grads: list[tuple[np.ndarray, ...]],
    cache: tuple,
    *,
    want_dx: bool = True,
) -> np.ndarray | None:
    """Full BPTT through :func:`lstm_forward`; returns the input gradient.

    The parameter gradients accumulate per timestep, in place, into
    ``grads[l]`` — layer ``l``'s ``(dW_ih, dW_hh, db_ih, db_hh)`` arrays,
    shaped like ``params[l]``.
    """
    steps_by_layer, (c, n, t_steps, _) = cache
    h_dim = params[0][1].shape[-1]
    # Gradient flowing into each timestep's hidden output of the layer
    # currently being processed (from the layer above, or the loss).
    dh_seq = np.zeros((c, n, t_steps, h_dim), dtype=np.float32)
    dh_seq[:, :, -1, :] = grad_h_last
    for layer in range(len(params) - 1, -1, -1):
        w_ih, w_hh, _, _ = params[layer]
        gw_ih, gw_hh, gb_ih, gb_hh = grads[layer]
        steps = steps_by_layer[layer]
        # Layer 0's input gradient is the whole stack's: skip its
        # per-timestep matmuls when nothing consumes it.
        layer_dx = layer > 0 or want_dx
        dx_seq = np.zeros((c, n, t_steps, w_ih.shape[-1]), dtype=np.float32)
        dh_next = np.zeros((c, n, h_dim), dtype=np.float32)
        dc_next = np.zeros((c, n, h_dim), dtype=np.float32)
        for t in range(t_steps - 1, -1, -1):
            s = steps[t]
            dh = dh_seq[:, :, t, :] + dh_next
            do = dh * s["tanh_c"]
            dc = dh * s["o"] * (1.0 - s["tanh_c"] ** 2) + dc_next
            di = dc * s["g"]
            df = dc * s["c_prev"]
            dg = dc * s["i"]
            dz = np.concatenate(
                [
                    di * s["i"] * (1.0 - s["i"]),
                    df * s["f"] * (1.0 - s["f"]),
                    dg * (1.0 - s["g"] ** 2),
                    do * s["o"] * (1.0 - s["o"]),
                ],
                axis=2,
            )
            dz_t = dz.transpose(0, 2, 1)  # (C, 4H, N)
            gw_ih += np.matmul(dz_t, s["x"])
            gw_hh += np.matmul(dz_t, s["h_prev"])
            dbias = dz.sum(axis=1)
            gb_ih += dbias
            gb_hh += dbias
            if layer_dx:
                dx_seq[:, :, t, :] = np.matmul(dz, w_ih)
            dh_next = np.matmul(dz, w_hh)
            dc_next = dc * s["f"]
        dh_seq = dx_seq  # feeds the layer below
    return dh_seq if want_dx else None
