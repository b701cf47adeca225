"""Batched "cohort" tensor programs: M same-architecture clients as one model.

The serial executor trains each client's model replica one at a time — for
the paper's regime (small CNN/LSTM models × many selected clients per
round) that spends most of its time in per-call numpy overhead rather than
arithmetic. This module restacks the problem: every parameter, gradient and
optimizer slot of M clients is stored along a leading *client axis* ``C``,
and each layer's forward/backward folds that axis into its contractions so
one batched BLAS call (``np.matmul`` over the leading axis) advances all M
clients per layer per step.

Implementation notes
--------------------
* The layer arithmetic is the shared kernel set in
  :mod:`repro.nn.functional`, which the serial layers also run (with a
  member axis of one). Its contractions are broadcast-batched ``np.matmul``
  calls, so member ``i`` of a cohort layer computes bitwise what the serial
  layer computes on member ``i``'s slice.
* Ragged batches are handled by padding to the widest member batch and
  masking: padded rows carry exactly-zero loss gradients, so they
  contribute zeros to every parameter gradient.
* Per-client early stopping (FedCA Eq. 2–4) and per-client iteration
  budgets (FedAda) drop members out of the cohort via the *active mask*
  passed to :meth:`CohortSGD.step` — a masked member's parameters are
  frozen bitwise (the whole step, including weight decay, is multiplied by
  the mask), and the caller stops drawing its batches so the member's data
  RNG stream stays exactly where a serial run would leave it.
* The serial executor remains the bitwise oracle. Layers match it exactly;
  the masked cohort loss and optimizer step still reorder a few float
  operations, which is why run-level equivalence is pinned to a documented
  tolerance (see ``tests/test_cohort.py`` and ``DESIGN.md`` §12).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .conv import Conv2d
from .layers import Dropout, Flatten, Identity, Linear, ReLU, Tanh
from .module import Module, forward_chain
from .norm import GroupNorm2d
from .pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from .rnn import LSTM

__all__ = [
    "CohortUnsupportedModel",
    "CohortParameter",
    "CohortModel",
    "CohortSGD",
    "build_cohort_model",
    "cohort_supported",
    "cohort_softmax_cross_entropy",
]


class CohortUnsupportedModel(ValueError):
    """Raised when a model cannot be expressed as a batched cohort program
    (non-chain topology such as WideResNet's residual blocks, or a layer
    type without a batched twin such as BatchNorm2d's running statistics)."""


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
class CohortParameter:
    """One model parameter stacked for M clients: ``data``/``grad`` have
    shape ``(C, *param_shape)``."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, cohort_size: int, shape: tuple[int, ...]) -> None:
        self.name = name
        self.data = np.zeros((cohort_size,) + shape, dtype=np.float32)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


# ----------------------------------------------------------------------
# Layers — all operate on (C, N, ...) tensors
# ----------------------------------------------------------------------
class _CohortLayer:
    """Base: a stateless transform or a parametrised layer over ``(C, N, …)``."""

    #: When False (set on the chain's first layer), parametrised layers
    #: skip the gradient w.r.t. their *input* — nothing consumes it.
    #: Parameter gradients are unaffected.
    compute_dx: bool = True

    def parameters(self) -> list[CohortParameter]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, g: np.ndarray) -> np.ndarray | None:  # pragma: no cover - abstract
        raise NotImplementedError

    def release_scratch(self) -> None:
        """Free the arrays the layer reuses from step to step (none here)."""


def _stacked(prefix: str, ref: Module, cohort_size: int) -> dict[str, CohortParameter]:
    """One stacked parameter per parameter of the serial layer ``ref``."""
    return {
        name: CohortParameter(f"{prefix}{name}", cohort_size, p.data.shape)
        for name, p in ref._parameters.items()
    }


class _CAffine(_CohortLayer):
    """Base of the stacked ``weight`` (+ optional ``bias``) layers."""

    def __init__(self, prefix: str, ref: Module, cohort_size: int) -> None:
        p = _stacked(prefix, ref, cohort_size)
        self.weight = p["weight"]
        self.bias = p.get("bias")
        self._cache = None

    def parameters(self) -> list[CohortParameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def _bias(self) -> np.ndarray | None:
        return None if self.bias is None else self.bias.data

    def _accumulate(self, dw: np.ndarray, db: np.ndarray | None) -> None:
        self.weight.grad += dw
        if self.bias is not None:
            self.bias.grad += db


class CLinear(_CAffine):
    """Batched affine map: ``y[c] = x[c] @ W[c].T + b[c]``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        return F.linear_forward(x, self.weight.data, self._bias())

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        x, self._cache = self._cache, None
        dw, db, dx = F.linear_backward(g, x, self.weight.data, want_dx=self.compute_dx)
        self._accumulate(dw, db)
        return dx


class CConv2d(_CAffine):
    """Batched conv: the member axis folds into the im2col GEMMs
    (:func:`repro.nn.functional.conv2d_forward`)."""

    def __init__(self, prefix: str, ref: Conv2d, cohort_size: int) -> None:
        super().__init__(prefix, ref, cohort_size)
        self.in_channels = ref.in_channels
        self.stride = ref.stride
        self.padding = ref.padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[2] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {x.shape[2]}")
        out, self._cache = F.conv2d_forward(
            x, self.weight.data, self._bias(), self.stride, self.padding
        )
        return out

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("CConv2d.backward called before forward")
        cache, self._cache = self._cache, None
        dw, db, dx = F.conv2d_backward(
            g, self.weight.data, cache, want_dx=self.compute_dx
        )
        self._accumulate(dw, db)
        return dx


class CGroupNorm2d(_CAffine):
    """Batched group normalisation (stateless, so train == eval)."""

    def __init__(self, prefix: str, ref: GroupNorm2d, cohort_size: int) -> None:
        super().__init__(prefix, ref, cohort_size)
        self.num_groups = ref.num_groups
        self.eps = ref.eps

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.group_norm_forward(
            x, self.weight.data, self.bias.data, self.num_groups, self.eps
        )
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        cache, self._cache = self._cache, None
        dw, db, dx = F.group_norm_backward(g, self.weight.data, cache)
        self._accumulate(dw, db)
        return dx


class CLSTM(_CohortLayer):
    """Batched stacked LSTM: per layer, one batched GEMM projects every
    timestep's input for all M clients, and each step's recurrence advances
    all of them in one more (:func:`repro.nn.functional.lstm_forward`)."""

    def __init__(self, prefix: str, ref: LSTM, cohort_size: int) -> None:
        self.input_size = ref.input_size
        p = _stacked(prefix, ref, cohort_size)
        self._p = [
            tuple(
                p[f"{kind}_l{layer}"]
                for kind in ("weight_ih", "weight_hh", "bias_ih", "bias_hh")
            )
            for layer in range(ref.num_layers)
        ]
        self._cache: tuple | None = None
        # The step cache and backward temporaries, reused from step to step.
        self._workspace: dict[str, np.ndarray] = {}

    def parameters(self) -> list[CohortParameter]:
        return [p for quad in self._p for p in quad]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[3] != self.input_size:
            raise ValueError(f"expected input size {self.input_size}, got {x.shape[3]}")
        params = [tuple(p.data for p in quad) for quad in self._p]
        self._cache = None  # release the previous step cache before building one
        out, self._cache = F.lstm_forward(x, params, self._workspace)
        return out

    def release_scratch(self) -> None:
        self._cache = None
        self._workspace = {}

    def backward(self, grad_h_last: np.ndarray) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("CLSTM.backward called before forward")
        cache, self._cache = self._cache, None
        return F.lstm_backward(
            grad_h_last,
            [tuple(p.data for p in quad) for quad in self._p],
            [tuple(p.grad for p in quad) for quad in self._p],
            cache,
            want_dx=self.compute_dx,
            workspace=self._workspace,
        )


class CFlatten(_CohortLayer):
    """Collapse all dims after (client, batch)."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g.reshape(self._shape)


class CDropout(_CohortLayer):
    """Inverted dropout drawing each member's mask from that member's own
    serial ``Dropout`` layer RNG, in serial order — so a member's RNG
    stream advances exactly as it would under the serial executor. Masked
    (inactive) members draw nothing."""

    def __init__(self, ref: Dropout, cohort_size: int) -> None:
        self.p = ref.p
        self._members: list[Dropout] | None = None
        self._mask: np.ndarray | None = None
        self.active: np.ndarray | None = None  # set per step by the engine
        self.valid_counts: np.ndarray | None = None

    def bind_members(self, modules: list[Module]) -> None:
        """Attach the members' serial ``Dropout`` layers (their RNGs)."""
        self._members = modules  # type: ignore[assignment]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        c = x.shape[0]
        mask = np.zeros_like(x, dtype=np.float32)
        counts = self.valid_counts
        for i in range(c):
            if self.active is not None and not self.active[i]:
                continue
            b = int(counts[i]) if counts is not None else x.shape[1]
            rng = self._members[i]._rng
            shape = (b,) + x.shape[2:]
            mask[i, :b] = (rng.random(shape) < keep).astype(np.float32) / keep
        self._mask = mask
        return x * mask

    def backward(self, g: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            return g
        return g * mask


# ----------------------------------------------------------------------
# Chain extraction and model construction
# ----------------------------------------------------------------------
def _chain_of(model: Module) -> list[tuple[str, Module]]:
    """The model's ordered primitive forward chain with dotted name
    prefixes; raises :class:`CohortUnsupportedModel` for topologies or
    layers the batched program cannot express."""
    try:
        chain = list(forward_chain(model))
    except ValueError as exc:
        raise CohortUnsupportedModel(str(exc)) from exc
    for _, module in chain:
        if type(module) not in _CONVERTERS:
            raise CohortUnsupportedModel(
                f"layer {type(module).__name__} has no batched cohort twin"
            )
    return chain


# Parameter-free layers that act elementwise or on the trailing spatial
# axes run unchanged over the stacked (C, N, ...) tensors: a fresh instance
# of the serial layer is the batched layer.
_CONVERTERS = {
    Linear: CLinear,
    Conv2d: CConv2d,
    ReLU: lambda pre, ref, c: ReLU(),
    Tanh: lambda pre, ref, c: Tanh(),
    Identity: lambda pre, ref, c: Identity(),
    Flatten: lambda pre, ref, c: CFlatten(),
    Dropout: lambda pre, ref, c: CDropout(ref, c),
    MaxPool2d: lambda pre, ref, c: MaxPool2d(ref.kernel_size),
    AvgPool2d: lambda pre, ref, c: AvgPool2d(ref.kernel_size),
    GlobalAvgPool2d: lambda pre, ref, c: GlobalAvgPool2d(),
    GroupNorm2d: CGroupNorm2d,
    LSTM: CLSTM,
}


def cohort_supported(model: Module) -> tuple[bool, str]:
    """Whether the model has a batched cohort program; ``(ok, reason)``."""
    try:
        _chain_of(model)
        return True, ""
    except CohortUnsupportedModel as exc:
        return False, str(exc)


class CohortModel:
    """M stacked client replicas of one architecture.

    ``params[name].data[i]`` is member ``i``'s value of parameter ``name``
    (a zero-copy view of the stacked tensor). Layer-name order matches the
    template model's ``named_parameters()`` order exactly, so per-member
    view dicts are drop-in replacements for serial ``state_dict``s in the
    FedCA sampling/retransmission machinery.
    """

    def __init__(self, template: Module, cohort_size: int) -> None:
        if cohort_size < 1:
            raise ValueError("cohort_size must be >= 1")
        self.cohort_size = cohort_size
        self.layers: list[_CohortLayer | Module] = []
        self._layer_prefixes: list[str] = []
        self.params: dict[str, CohortParameter] = {}
        for prefix, module in _chain_of(template):
            layer = _CONVERTERS[type(module)](prefix, module, cohort_size)
            self.layers.append(layer)
            self._layer_prefixes.append(prefix)
            for p in layer.parameters():
                self.params[p.name] = p
        # Validate against the template's parameter census: a converter that
        # silently dropped a parameter would corrupt aggregation.
        template_names = [name for name, _ in template.named_parameters()]
        if sorted(template_names) != sorted(self.params):
            raise CohortUnsupportedModel(
                "cohort parameter set does not match template model"
            )
        # Preserve the template's depth-first parameter order.
        self.params = {name: self.params[name] for name in template_names}
        self._dropouts = [l for l in self.layers if isinstance(l, CDropout)]
        # The first layer's input gradient has no consumer; let it skip the
        # (often expensive) dX computation, as serial training replicas do
        # (:func:`repro.nn.module.skip_stem_input_grad`).
        if self.layers:
            self.layers[0].compute_dx = False

    # ------------------------------------------------------------------
    def bind_member_models(self, models: list[Module]) -> None:
        """Attach the members' serial replicas (per-member Dropout RNGs)."""
        if len(models) != self.cohort_size:
            raise ValueError("need exactly one member model per cohort slot")
        for layer, prefix in zip(self.layers, self._layer_prefixes):
            if isinstance(layer, CDropout):
                layer.bind_members([self._resolve(m, prefix) for m in models])

    @staticmethod
    def _resolve(model: Module, dotted_prefix: str) -> Module:
        node = model
        for part in dotted_prefix.rstrip(".").split("."):
            if part:
                node = getattr(node, part)
        return node

    # ------------------------------------------------------------------
    def load_global(self, state: dict[str, np.ndarray]) -> None:
        """Broadcast the server state into every member slot."""
        own = set(self.params)
        if own != set(state):
            missing = sorted(own - set(state))
            extra = sorted(set(state) - own)
            raise KeyError(
                f"state_dict mismatch: missing={missing} extra={extra}"
            )
        for name, p in self.params.items():
            p.data[...] = np.asarray(state[name], dtype=np.float32)

    def member_params(self, i: int) -> dict[str, np.ndarray]:
        """Member ``i``'s parameter views (zero-copy)."""
        return {name: p.data[i] for name, p in self.params.items()}

    def stacked_update(
        self, global_state: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Accumulated updates for the whole cohort, one vectorised subtract
        per layer: ``update[name][i]`` is member ``i``'s ``w_local − w_global``.
        Per-member result dicts are zero-copy views into these stacks, so
        aggregation consumes the batched tensor without an unstack pass."""
        return {
            name: p.data - np.asarray(global_state[name], dtype=np.float32)[None]
            for name, p in self.params.items()
        }

    def write_back(self, models: list[Module]) -> None:
        """Copy each member's trained slot into its serial replica, leaving
        the replicas exactly as a serial round would (cheap insurance for
        anything that inspects ``client.model`` between rounds)."""
        for i, model in enumerate(models):
            for name, p in model.named_parameters():
                p.data[...] = self.params[name].data[i]

    def release_scratch(self) -> None:
        """Free the layers' step-to-step scratch arrays once training ends,
        so they do not stay resident beside the next evaluation."""
        for layer in self.layers:
            if isinstance(layer, _CohortLayer):
                layer.release_scratch()

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, g: np.ndarray) -> None:
        for layer in reversed(self.layers):
            g = layer.backward(g)

    def set_step_masks(
        self, active: np.ndarray, valid_counts: np.ndarray
    ) -> None:
        """Publish this step's member-activity mask and per-member valid
        row counts to the layers that need them (Dropout draws)."""
        for d in self._dropouts:
            d.active = active
            d.valid_counts = valid_counts


# ----------------------------------------------------------------------
# Loss and optimizer
# ----------------------------------------------------------------------
#: Contraction path of the masked per-member loss reduction, given
#: literally: it is the optimal (and only) two-operand path, and numpy's
#: path-driven contraction sums in another order than its default kernel.
LOSS_EINSUM_PATH = ["einsum_path", (0, 1)]


def cohort_softmax_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked per-member softmax cross-entropy over padded ``(C, B, K)``
    logits.

    ``counts[i]`` is member ``i``'s number of valid rows (0 for masked-out
    members); rows at or beyond a member's count carry exactly-zero
    gradient, and each member's loss/gradient is normalised by its *own*
    count — matching what a serial per-client loss computes.

    Returns ``(loss, grad)`` with ``loss`` shape ``(C,)`` (``0.0`` for
    members with no valid rows) and ``grad`` shaped like ``logits``.
    """
    c, b, _ = logits.shape
    if labels.shape != (c, b):
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    counts = np.asarray(counts)
    valid = (np.arange(b)[None, :] < counts[:, None]).astype(np.float32)  # (C, B)
    safe = np.maximum(counts, 1).astype(np.float64)

    log_probs = F.log_softmax(logits, axis=2)
    ci = np.arange(c)[:, None]
    bi = np.arange(b)[None, :]
    picked = log_probs[ci, bi, labels]  # (C, B)
    loss = -np.einsum(
        "cb,cb->c", picked.astype(np.float64), valid.astype(np.float64),
        optimize=LOSS_EINSUM_PATH,
    ) / safe

    grad = F.softmax(logits, axis=2)
    grad[ci, bi, labels] -= 1.0
    grad *= (valid / safe[:, None].astype(np.float32))[:, :, None]
    return loss, grad.astype(np.float32)


class CohortSGD:
    """Batched SGD/momentum step over stacked parameters with an active
    mask: a masked member's parameters do not move at all — the *entire*
    effective step (including the weight-decay component, which is nonzero
    even at zero loss gradient) is multiplied by the mask, exactly
    reproducing a serial client that simply stopped calling ``step()``."""

    def __init__(
        self,
        model: CohortModel,
        lr: float,
        *,
        weight_decay: float = 0.0,
        momentum: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.model = model
        self.lr = lr
        self.weight_decay = weight_decay
        self.momentum = momentum
        self._velocity: dict[str, np.ndarray] | None = (
            {name: np.zeros_like(p.data) for name, p in model.params.items()}
            if momentum > 0.0
            else None
        )

    def step(self, active: np.ndarray | None = None) -> None:
        """One masked update for every stacked parameter.

        ``active`` is a ``(C,)`` boolean mask; ``None`` means all members
        step. Velocity slots of inactive members are updated-but-unused:
        within one round a member never re-activates (stops are terminal
        and budgets are prefixes), and optimizers never outlive a round.
        """
        for name, p in self.model.params.items():
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self._velocity is not None:
                v = self._velocity[name]
                v *= self.momentum
                v += grad
                grad = v
            if active is None:
                p.data -= self.lr * grad
            else:
                mask = active.astype(np.float32).reshape(
                    (-1,) + (1,) * (p.data.ndim - 1)
                )
                p.data -= self.lr * grad * mask

    def zero_grad(self) -> None:
        self.model.zero_grad()


def build_cohort_model(template: Module, cohort_size: int) -> CohortModel:
    """Build the batched cohort program for ``cohort_size`` replicas of
    ``template``; raises :class:`CohortUnsupportedModel` when the
    architecture has no batched expression (e.g. WideResNet)."""
    return CohortModel(template, cohort_size)
