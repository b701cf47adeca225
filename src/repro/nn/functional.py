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


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic sigmoid, optionally written into ``out``.

    ``exp(min(x, 0)) / (1 + exp(-|x|))`` is ``1 / (1 + e⁻ˣ)`` for
    ``x ≥ 0`` (the numerator is exactly 1) and ``eˣ / (1 + eˣ)`` for
    ``x < 0``: neither exponent is ever positive, so nothing overflows in
    float32, and no sign mask splits the array.
    """
    return np.divide(np.exp(np.minimum(x, 0)), 1 + np.exp(-np.abs(x)), out=out)


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


def _scratch(workspace: dict | None, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float32 array of ``shape``: ``workspace[key]`` when
    that already has the shape, else a new array (kept there for the next
    call when a ``workspace`` is given)."""
    if workspace is None:
        return np.empty(shape, dtype=np.float32)
    arr = workspace.get(key)
    if arr is None or arr.shape != shape:
        arr = workspace[key] = np.empty(shape, dtype=np.float32)
    return arr


def lstm_forward(
    x: np.ndarray,
    params: list[tuple[np.ndarray, ...]],
    workspace: dict | None = None,
) -> tuple[np.ndarray, tuple]:
    """Stacked LSTM over float32 ``(C, N, T, D)``; returns the top layer's
    final hidden state ``(C, N, H)``.

    ``params[l]`` is layer ``l``'s ``(W_ih, W_hh, b_ih, b_hh)``, gates in
    torch's ``i, f, g, o`` order. Work runs time-major. Per layer, the
    input projection ``x_t @ W_ihᵀ`` of every step is one batched matmul
    before the time loop; each step then runs only the recurrence:
    ``(proj_t + h @ W_hhᵀ) + bias``, one sigmoid over the whole ``4H`` gate
    block (the ``g`` slice is then overwritten with ``tanh``) and the cell
    update. The cache keeps per layer the stacked arrays the backward pass
    reads: the input ``(T, C, N, D)``, the gate activations gate-major
    ``(T, 4, C, N, H)`` (so each gate is one contiguous block), ``h`` and
    ``c`` as ``(T + 1, C, N, H)`` with the zero initial state in row 0, and
    ``tanh(c)``.

    With a ``workspace`` dict (owned by the caller, reused across calls)
    those stacks and the projection are written into its arrays instead of
    fresh ones, so the cache is valid only until the next call with that
    workspace. Without one, a batched training step allocates and frees
    several ``(T, C, N, 4H)`` stacks per layer; at cohort sizes that is
    enough for the allocator to shrink and regrow the heap every step, and
    the step then spends a fifth of its time in page faults whose cost
    swings with the host's load.
    """
    c, n, t_steps, _ = x.shape
    h_dim = params[0][1].shape[-1]
    cache: list[tuple[np.ndarray, ...]] = []
    layer_input = x.transpose(2, 0, 1, 3)
    for w_ih, w_hh, b_ih, b_hh in params:
        # The transposed weight views pick the same BLAS routines as a
        # step-by-step matmul at every shape; contiguous copies would not.
        w_hh_t = w_hh.transpose(0, 2, 1)
        proj = np.matmul(
            layer_input, w_ih.transpose(0, 2, 1),
            out=_scratch(workspace, "proj", (t_steps, c, n, 4 * h_dim)),
        )
        bias = (b_ih + b_hh)[:, None, :]
        layer = len(cache)
        gates = _scratch(workspace, f"gates{layer}", (t_steps, 4, c, n, h_dim))
        h = _scratch(workspace, f"h{layer}", (t_steps + 1, c, n, h_dim))
        cs = _scratch(workspace, f"c{layer}", (t_steps + 1, c, n, h_dim))
        tanh_c = _scratch(workspace, f"tanh_c{layer}", (t_steps, c, n, h_dim))
        h[0] = 0.0
        cs[0] = 0.0
        i_g, f_g, g_g, o_g = (gates[:, k] for k in range(4))
        for t in range(t_steps):
            z = proj[t] + np.matmul(h[t], w_hh_t)
            z += bias
            z = z.reshape(c, n, 4, h_dim)
            sigmoid(z, out=gates[t].transpose(1, 2, 0, 3))
            np.tanh(z[:, :, 2], out=g_g[t])
            np.add(f_g[t] * cs[t], i_g[t] * g_g[t], out=cs[t + 1])
            np.tanh(cs[t + 1], out=tanh_c[t])
            np.multiply(o_g[t], tanh_c[t], out=h[t + 1])
        cache.append((layer_input, gates, h, cs, tanh_c))
        layer_input = h[1:]
    return h[-1].copy(), (cache, x.shape)


def lstm_backward(
    grad_h_last: np.ndarray,
    params: list[tuple[np.ndarray, ...]],
    grads: list[tuple[np.ndarray, ...]],
    cache: tuple,
    *,
    want_dx: bool = True,
    workspace: dict | None = None,
) -> np.ndarray | None:
    """Full BPTT through :func:`lstm_forward`; returns the input gradient.

    The parameter gradients accumulate, in place, into ``grads[l]`` —
    layer ``l``'s ``(dW_ih, dW_hh, db_ih, db_hh)`` arrays, shaped like
    ``params[l]``. Each step of the time loop computes only what the
    recurrence needs: ``dh``, ``dc``, the gate pre-activation gradient
    ``dz_t`` (stored into a ``(T, C, N, 4H)`` stack), ``dz_t @ W_hh`` and
    ``dc·f``. The activation derivatives ``1 − a`` / ``1 − g²`` and
    ``1 − tanh(c)²`` are computed for all steps before the loop; the bias
    sums and the input gradient are one batched sum and one batched matmul
    after it, the weight gradients one matmul per step (a batched one
    allocates ``(T, C, 4H, ·)`` outputs that page-fault on every call).
    Every product keeps the operand order of a step-by-step BPTT, and the
    per-step weight and bias terms are added into ``grads[l]`` one step at
    a time in descending ``t``, so the sums are bitwise those of that BPTT
    (a single reduction over ``T`` would reorder them). A ``workspace``
    holds the per-layer temporaries across calls, as in :func:`lstm_forward`.
    """
    layers, (c, n, t_steps, _) = cache
    h_dim = params[0][1].shape[-1]
    # Gradient flowing into each timestep's hidden output of the layer
    # currently being processed (from the layer above, or the loss).
    dh_seq = np.zeros((t_steps, c, n, h_dim), dtype=np.float32)
    dh_seq[-1] = grad_h_last
    for layer in range(len(params) - 1, -1, -1):
        w_ih, w_hh, _, _ = params[layer]
        gw_ih, gw_hh, gb_ih, gb_hh = grads[layer]
        x_seq, gates, h, cs, tanh_c = layers[layer]
        i_g, f_g, g_g, o_g = (gates[:, k] for k in range(4))
        act_grad = np.subtract(1.0, gates, out=_scratch(workspace, "act_grad", gates.shape))
        g_grad = act_grad[:, 2]
        np.square(g_g, out=g_grad)
        np.subtract(1.0, g_grad, out=g_grad)
        tanh_grad = _scratch(workspace, "tanh_grad", tanh_c.shape)
        np.square(tanh_c, out=tanh_grad)
        np.subtract(1.0, tanh_grad, out=tanh_grad)
        dz = _scratch(workspace, "dz", (t_steps, c, n, 4 * h_dim))
        dz_gates = dz.reshape(t_steps, c, n, 4, h_dim).transpose(0, 3, 1, 2, 4)
        d_act = np.empty((4, c, n, h_dim), dtype=np.float32)
        di, df, dg, do = d_act
        dh_next = np.zeros((c, n, h_dim), dtype=np.float32)
        dc_next = np.zeros((c, n, h_dim), dtype=np.float32)
        for t in range(t_steps - 1, -1, -1):
            dh = dh_seq[t] + dh_next
            dc = dh * o_g[t] * tanh_grad[t] + dc_next
            np.multiply(dc, g_g[t], out=di)
            di *= i_g[t]
            np.multiply(dc, cs[t], out=df)
            df *= f_g[t]
            np.multiply(dc, i_g[t], out=dg)
            np.multiply(dh, tanh_c[t], out=do)
            do *= o_g[t]
            np.multiply(d_act, act_grad[t], out=dz_gates[t])
            dh_next = np.matmul(dz[t], w_hh)
            dc_next = dc * f_g[t]
        dz_tr = dz.transpose(0, 1, 3, 2)  # (T, C, 4H, N)
        dbias = dz.sum(axis=2)
        for t in range(t_steps - 1, -1, -1):
            gw_ih += np.matmul(dz_tr[t], x_seq[t])
            gw_hh += np.matmul(dz_tr[t], h[t])
            gb_ih += dbias[t]
            gb_hh += dbias[t]
        # Layer 0's input gradient is the whole stack's: skip it when
        # nothing consumes it.
        if layer > 0 or want_dx:
            dh_seq = np.matmul(dz, w_ih)  # feeds the layer below
    return dh_seq.transpose(1, 2, 0, 3) if want_dx else None
