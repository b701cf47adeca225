"""The benchmark's four federated-learning workloads.

Each workload is one preset task (data, partition and model fixed by the
preset) run under one scheme and one engine. ``--seed`` is the simulator
seed: it draws the system inputs of a run — client selection, per-client
device-speed dynamics and minibatch order — so the same seed gives the same
run. Environments are built only through the program's public entry
points (``get_workload``, ``make_environment``, ``FederatedSimulator``,
``SubsampledShards``).

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = ["Env", "Workload", "WORKLOADS"]


@dataclass
class Env:
    """A built environment plus the side channels some workloads attach."""

    sim: Any
    recorder: Any = None
    trace_path: Path | None = None
    checkpoint_dir: Path | None = None
    checkpoint_every: int | None = None

    def close(self) -> None:
        try:
            self.sim.close()
        finally:
            if self.recorder is not None:
                self.recorder.close()


@dataclass(frozen=True)
class Workload:
    name: str
    #: Executor spec of the timed run.
    engine: str
    target: float
    #: Round-budget floor: every seed reaches ``target`` well inside it.
    min_rounds: int
    #: Seconds per round the budget assumes, about what the reference box
    #: (2 cores) measured; turns ``--seconds`` into a round budget. The
    #: budget is a pure function of ``--seconds``, so the simulated metrics
    #: repeat exactly per seed.
    nominal_round_s: float
    #: Rounds re-run with tracing on; fixed so per-round counts repeat.
    traced_rounds: int
    #: Prefix oracles: ``repeat`` (same engine, bitwise), ``serial-bitwise``
    #: and ``serial-close`` (serial engine, bitwise or at the documented
    #: cohort tolerance).
    oracles: tuple[str, ...]
    make: Callable[..., Env] = field(repr=False)

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, math.ceil(seconds / self.nominal_round_s))

    def build(self, seed: int, workdir: Path, executor: str | None = None,
              profiler=None) -> Env:
        workdir.mkdir(parents=True, exist_ok=True)
        return self.make(seed, workdir, executor or self.engine, profiler)


# ----------------------------------------------------------------------
# Environment factories
# ----------------------------------------------------------------------
def _preset(name: str, scheme: str, seed: int, executor: str, profiler,
            wire: str | None = None, recorder=None):
    from repro.algorithms import build_strategy
    from repro.core import FedCAConfig
    from repro.experiments.configs import get_workload, make_environment
    from repro.runtime import parse_wire_spec

    cfg = get_workload(name, "micro")
    fedca_config = (
        FedCAConfig(profile_every=cfg.fedca_profile_every) if scheme == "fedca" else None
    )
    strategy = build_strategy(scheme, cfg.optimizer_spec(), fedca_config=fedca_config)
    layer = parse_wire_spec(wire)
    if layer is not None:
        strategy.set_wire(layer)
    return make_environment(
        cfg, strategy, seed=seed, executor=executor, recorder=recorder, profiler=profiler
    )


def _fedca_cnn(seed, workdir, executor, profiler) -> Env:
    return Env(_preset("cnn", "fedca", seed, executor, profiler))


def _fedavg_lstm(seed, workdir, executor, profiler) -> Env:
    return Env(_preset("lstm", "fedavg", seed, executor, profiler))


def _fedca_cnn_wire(seed, workdir, executor, profiler) -> Env:
    from repro.obs import TraceRecorder

    trace_path = workdir / "trace.jsonl"
    recorder = TraceRecorder(trace_path=str(trace_path), buffered=True)
    try:
        sim = _preset("cnn", "fedca", seed, executor, profiler, wire="quant8",
                      recorder=recorder)
    except BaseException:
        recorder.close()
        raise
    return Env(sim, recorder=recorder, trace_path=trace_path,
               checkpoint_dir=workdir / "checkpoints", checkpoint_every=5)


#: ``benchmarks/scale_bench.py``'s population workload: 8×8 mono images, a
#: 2-channel LeNet, 16-sample shards subsampled from a fixed pool.
LAZY_CLIENTS = 100_000
LAZY_PER_ROUND = 100
POOL_SAMPLES = 2048
TEST_SAMPLES = 512
NUM_CLASSES = 4


def _fedavg_lazy(seed, workdir, executor, profiler) -> Env:
    import numpy as np

    from repro.algorithms import build_strategy
    from repro.algorithms.base import OptimizerSpec
    from repro.data import make_image_dataset
    from repro.nn import LeNetCNN
    from repro.runtime import FederatedSimulator
    from repro.scale import SubsampledShards
    from repro.sysmodel import iteration_time_for

    def model_fn():
        return LeNetCNN(in_channels=1, image_size=8, num_classes=NUM_CLASSES,
                        conv_channels=(2, 2), fc_sizes=(8, 8),
                        rng=np.random.default_rng(7))

    # One draw split into pool and test set: the test images share the
    # pool's class prototypes, so accuracy measures learning. (scale_bench
    # draws its test set with another seed, i.e. other prototypes, and its
    # accuracy stays at chance.)
    data = make_image_dataset(num_samples=POOL_SAMPLES + TEST_SAMPLES,
                              num_classes=NUM_CLASSES, channels=1, image_size=8, seed=5)
    pool = data.subset(np.arange(POOL_SAMPLES))
    test = data.subset(np.arange(POOL_SAMPLES, POOL_SAMPLES + TEST_SAMPLES))
    sim = FederatedSimulator(
        model_fn=model_fn,
        strategy=build_strategy("fedavg", OptimizerSpec(lr=0.05, weight_decay=0.0)),
        shards=SubsampledShards(pool, LAZY_CLIENTS, 16, alpha=0.5, seed=9),
        test_set=test,
        base_iteration_times=lambda cid: iteration_time_for(cid, 0.01, seed=0),
        batch_size=8,
        local_iterations=4,
        aggregation_fraction=0.8,
        clients_per_round=LAZY_PER_ROUND,
        seed=seed,
        executor=executor,
        population="lazy",
        profiler=profiler,
    )
    return Env(sim)


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="fedca-cnn-serial",
            engine="serial", target=0.85, min_rounds=30, nominal_round_s=1.15,
            traced_rounds=8, oracles=("repeat",), make=_fedca_cnn,
        ),
        Workload(
            name="fedavg-lstm-cohort",
            engine="cohort", target=0.8, min_rounds=40, nominal_round_s=0.25,
            traced_rounds=12, oracles=("repeat", "serial-close"), make=_fedavg_lstm,
        ),
        Workload(
            name="fedca-cnn-parallel-wire",
            engine="parallel:2@shm+shards=2", target=0.85, min_rounds=30,
            nominal_round_s=0.85, traced_rounds=10, oracles=("serial-bitwise",),
            make=_fedca_cnn_wire,
        ),
        Workload(
            name="fedavg-lazy-100k",
            engine="serial", target=0.8, min_rounds=20, nominal_round_s=0.73,
            traced_rounds=6, oracles=("repeat",), make=_fedavg_lazy,
        ),
    )
}
