"""Offline statistical-progress probing for the motivation figures.

Figs. 2–5 need *exact* per-iteration progress curves (whole-model,
per-layer, and sampled-vs-full). The probe replays one client's local round
from a given global state on a throwaway model replica, recording the full
accumulated update after every iteration — the "naive full profiling" that
FedCA's periodical sampling replaces. At micro scale the full snapshots fit
in memory trivially, which is exactly why the probe can serve as ground
truth for validating the sampled estimator (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms import OptimizerSpec
from ..core import LayerSampler, progress_curve
from ..data import BatchStream, Dataset
from ..nn import skip_stem_input_grad, softmax_cross_entropy

__all__ = ["ProbeResult", "probe_curves"]


@dataclass(frozen=True)
class ProbeResult:
    """Ground-truth curves from one probed local round."""

    model_curve: np.ndarray  # (K,)
    layer_curves: dict[str, np.ndarray]  # name -> (K,)
    sampled_layer_curves: dict[str, np.ndarray] | None  # with intra-layer sampling
    sampled_model_curve: np.ndarray | None


def probe_curves(
    *,
    model_fn,
    shard: Dataset,
    global_state: dict[str, np.ndarray],
    optimizer: OptimizerSpec,
    iterations: int,
    batch_size: int,
    sampler: LayerSampler | None = None,
    seed: int = 0,
) -> ProbeResult:
    """Replay a local round and compute exact progress curves.

    When ``sampler`` is given, sampled-subset curves are computed alongside
    the full ones from the *same* trajectory, enabling an apples-to-apples
    sampling-fidelity comparison (Fig. 5).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    model = model_fn()
    skip_stem_input_grad(model)
    model.load_state_dict(global_state)
    model.train(True)
    opt = optimizer.build(model)
    stream = BatchStream(shard, batch_size, seed=seed)
    params = dict(model.named_parameters())
    start = {name: p.data.copy() for name, p in params.items()}

    full_snapshots: list[dict[str, np.ndarray]] = []
    sampled_snapshots: list[dict[str, np.ndarray]] = []
    for _ in range(iterations):
        x, y = stream.next_batch()
        logits = model(x)
        _, grad = softmax_cross_entropy(logits, y)
        model.zero_grad()
        model.backward(grad)
        opt.step()
        delta = {name: p.data - start[name] for name, p in params.items()}
        full_snapshots.append(delta)
        if sampler is not None:
            sampled_snapshots.append(sampler.extract(delta))

    layer_names = list(start.keys())
    layer_curves = {
        name: progress_curve([s[name] for s in full_snapshots])
        for name in layer_names
    }
    flat = [
        np.concatenate([s[n].ravel() for n in layer_names]) for s in full_snapshots
    ]
    model_curve = progress_curve(flat)

    sampled_layer_curves = None
    sampled_model_curve = None
    if sampler is not None:
        sampled_layer_curves = {
            name: progress_curve([s[name] for s in sampled_snapshots])
            for name in layer_names
        }
        sflat = [
            np.concatenate([s[n] for n in layer_names]) for s in sampled_snapshots
        ]
        sampled_model_curve = progress_curve(sflat)

    return ProbeResult(
        model_curve=model_curve,
        layer_curves=layer_curves,
        sampled_layer_curves=sampled_layer_curves,
        sampled_model_curve=sampled_model_curve,
    )
