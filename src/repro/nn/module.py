"""Base class for manual-backprop layers and containers.

Mirrors the small slice of ``torch.nn.Module`` that the paper's artifacts
rely on: attribute-based submodule/parameter registration, dotted
``named_parameters()`` (FedCA addresses layers by names such as
``"conv2.weight"`` or ``"rnn.weight_hh_l0"``), train/eval mode, and
``state_dict`` round-trips for model broadcast and aggregation.

Unlike torch there is no autograd tape: each module caches whatever it needs
during :meth:`forward` and consumes the cache in :meth:`backward`. A module
is therefore single-flight — one forward must be followed by its backward
before the next forward. The FL client loop (one batch per local iteration)
satisfies this by construction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .parameter import Parameter

__all__ = ["Module", "forward_chain", "skip_stem_input_grad"]


class Module:
    """Base layer with parameter registration and mode switching."""

    #: When False, a parametrised layer's :meth:`backward` skips the
    #: gradient w.r.t. its *input* and returns ``None``; parameter gradients
    #: are unaffected. :func:`skip_stem_input_grad` clears it on a training
    #: replica's first layer, whose input gradient nothing consumes.
    compute_dx: bool = True

    def __init__(self) -> None:
        # OrderedDicts keep parameter order deterministic, which matters for
        # flattened-update comparisons in tests and for reproducible
        # intra-layer sampling.
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        """Register a parameter under a name that is not a valid attribute
        (e.g. ``weight_ih_l0`` lives in a dict inside :class:`LSTM`)."""
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable state tensor (e.g. BatchNorm running
        statistics). Buffers are synchronised between server and clients
        alongside parameters, but never receive gradients and never enter
        the accumulated-update math; mutate them in place only."""
        arr = np.ascontiguousarray(value, dtype=np.float32)
        self._buffers[name] = arr
        object.__setattr__(self, name, arr)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, Parameter)`` pairs, depth-first.

        Also stamps each parameter's ``.name`` so that error messages and
        the FedCA profiler can identify buffers without carrying the module
        tree around.
        """
        for name, param in self._parameters.items():
            full = f"{prefix}{name}"
            if not param.name:
                param.name = full
            yield full, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters, depth-first (matching ``named_parameters``)."""
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, array)`` for every registered buffer."""
        for name, buf in self._buffers.items():
            yield f"{prefix}{name}", buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` for this module and descendants."""
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total scalar parameter count (paper quotes 60K/50K/36M)."""
        return sum(p.size for p in self.parameters())

    def nbytes(self) -> int:
        """Total transmission size of the model in bytes."""
        return sum(p.nbytes for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects Dropout/BatchNorm).

        Layers keep the activations their ``backward`` reads only in
        training mode, so an inference forward leaves none behind; a
        ``backward`` that needs them raises ``RuntimeError``."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to inference mode (``train(False)``)."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Reset every parameter's accumulated gradient."""
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # State round-trips (model broadcast / aggregation)
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of every parameter value keyed by dotted name."""
        return OrderedDict((name, p.data.copy()) for name, p in self.named_parameters())

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values in place. Every model parameter must be present and
        shape-compatible; extra keys are an error (they indicate a model
        mismatch between server and client)."""
        own = dict(self.named_parameters())
        missing = own.keys() - state.keys()
        extra = state.keys() - own.keys()
        if missing or extra:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: model {param.data.shape}, "
                    f"state {value.shape}"
                )
            param.data[...] = value

    def buffer_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of every buffer value keyed by dotted name (may be empty)."""
        return OrderedDict((name, b.copy()) for name, b in self.named_buffers())

    def load_buffer_dict(self, buffers: dict[str, np.ndarray]) -> None:
        """Load buffer values in place; every model buffer must be present."""
        own = dict(self.named_buffers())
        missing = own.keys() - buffers.keys()
        extra = buffers.keys() - own.keys()
        if missing or extra:
            raise KeyError(
                f"buffer_dict mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, buf in own.items():
            value = np.asarray(buffers[name], dtype=np.float32)
            if value.shape != buf.shape:
                raise ValueError(f"shape mismatch for buffer {name}")
            buf[...] = value

    # ------------------------------------------------------------------
    # Interface expected from subclasses
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def forward_chain(module: Module, prefix: str = "") -> Iterator[tuple[str, Module]]:
    """Yield ``(dotted_prefix, layer)`` for the primitive (submodule-free)
    layers of ``module`` in forward order.

    A container states its forward order in ``_chain`` (a list of its
    registered submodules; :class:`~repro.nn.layers.Sequential` exposes its
    own). A parameter-free container without one is walked in registration
    order, which matches forward order for simple heads (e.g.
    ``LSTMClassifier``'s ``rnn -> fc``). Raises ``ValueError`` on a module
    whose order cannot be read; the walk is lazy, so the layers before such
    a module are still yielded.
    """
    chain = getattr(module, "_chain", None)
    if chain is not None:
        # Chain members are direct submodules; recover their registered names.
        by_id = {id(m): name for name, m in module._modules.items()}
        for m in chain:
            name = by_id.get(id(m))
            if name is None:
                raise ValueError(
                    f"{type(module).__name__}._chain contains an unregistered module"
                )
            yield from forward_chain(m, f"{prefix}{name}.")
    elif not module._modules:
        yield prefix, module
    elif module._parameters or module._buffers:
        raise ValueError(
            f"cannot extract a forward chain from {type(module).__name__}: "
            "it holds parameters next to submodules"
        )
    else:
        for name, sub in module._modules.items():
            yield from forward_chain(sub, f"{prefix}{name}.")


def skip_stem_input_grad(model: Module) -> None:
    """Let the first layer in ``model``'s forward order skip its input
    gradient (``compute_dx = False``): for a model being trained, the
    gradient w.r.t. the data batch has no consumer. Parameter gradients are
    unchanged; the model's :meth:`~Module.backward` then returns ``None``."""
    try:
        _, first = next(forward_chain(model))
    except (StopIteration, ValueError):
        return
    first.compute_dx = False
