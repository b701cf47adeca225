"""Span recording for the traced benchmark run.

The traced run wraps public functions and methods of the program from the
outside (this file), before the simulator is built. Every wrapped call
records one span: name, start, end, the span that called it, and the round
index and client id it belongs to (the shared identifier of one client's
work in one round). Spans stay in memory and are summarised once, at the
end of the run.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so the per-layer seconds of one round add
up to the round's wall time without double counting.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = ["Span", "SpanRecorder", "self_times", "summarize", "instrument", "LAYER_SPANS"]

#: Every span name :func:`instrument` records, in report order.
LAYER_SPANS = (
    "nn.Conv2d.forward", "nn.Conv2d.backward",
    "nn.MaxPool2d.forward", "nn.MaxPool2d.backward",
    "nn.Linear.forward", "nn.Linear.backward",
    "nn.loss", "nn.SGD.step",
    "cohort_nn.CConv2d.forward", "cohort_nn.CConv2d.backward",
    "cohort_nn.CLSTM.forward", "cohort_nn.CLSTM.backward",
    "cohort_nn.CLinear.forward", "cohort_nn.CLinear.backward",
    "cohort_nn.CohortSGD.step", "cohort.train_step",
    "data.next_batch",
    "client.train_step", "client.local_update",
    "strategy.client_round", "strategy.cohort_round",
    "core.anchor_record", "core.anchor_finalize", "core.earlystop_decide",
    "core.eager_due", "core.retransmit_check",
    "aggregation.collect_earliest", "aggregation.aggregate_updates",
    "aggregation.apply_update", "simulator.evaluate",
    "parallel.run_round", "parallel.aggregate_round",
    "obs.emit", "obs.flush", "persist.checkpoint_save",
    "scale.acquire", "scale.create",
)


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # sid of the calling span; -1 at the top
    round_index: int | None
    client_id: int | None


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span, keyed by ``sid``."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


def summarize(spans: Iterable[Span]) -> dict[str, tuple[float, int]]:
    """``name -> (total self seconds, calls)`` over spans inside rounds."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for s in spans:
        if s.round_index is None:
            continue
        row = out[s.name]
        row[0] += own[s.sid]
        row[1] += 1
    return {name: (row[0], row[1]) for name, row in out.items()}


class SpanRecorder:
    """Collects spans from wrapped callables (single-threaded callers)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: Set by the round loop; spans outside a round are not summarised.
        self.round_index: int | None = None
        #: Tallies added by ``observe`` hooks (e.g. live cohort slots).
        self.tallies: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, int | None]] = []
        self._next_sid = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def _open(self, client_id: int | None) -> tuple[int, int, int | None]:
        parent, inherited = self._stack[-1] if self._stack else (-1, None)
        cid = inherited if client_id is None else client_id
        sid = self._next_sid
        self._next_sid += 1
        self._stack.append((sid, cid))
        return sid, parent, cid

    def _close(self, name: str, sid: int, parent: int, cid, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self.round_index, cid))

    def wrap(
        self,
        name: str,
        fn: Callable,
        client_of: Callable[[tuple], int] | None = None,
        observe: Callable[[dict, tuple, dict], None] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so each call records a span ``name``."""
        rec = self

        def traced(*args, **kwargs):
            if observe is not None:
                observe(rec.tallies, args, kwargs)
            sid, parent, cid = rec._open(None if client_of is None else client_of(args))
            start = rec.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(name, sid, parent, cid, start)

        return functools.update_wrapper(traced, fn)

    def patch(self, owner: Any, attr: str, name: str, **kw: Any) -> None:
        """Replace ``owner.attr`` (a module global or a method defined on
        the class itself) with its traced wrapper until :meth:`restore`."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, **kw))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _cohort_slots(tallies: dict, args: tuple, kwargs: dict) -> None:
    active = kwargs["active"] if "active" in kwargs else args[2]
    tallies["cohort.slots"] += len(active)
    tallies["cohort.live"] += int(active.sum())


def instrument(rec: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics are read from.

    Module globals are patched where the caller looks them up (e.g.
    ``aggregate_updates`` in the simulator module), so the wrapper sees
    every call the program makes.
    """
    import repro.algorithms.fedavg as fedavg
    import repro.algorithms.fedca as fedca
    import repro.core as core
    import repro.data.loader as loader
    import repro.nn.cohort as cohort_nn
    import repro.nn.conv as conv
    import repro.nn.layers as layers
    import repro.nn.optim as optim
    import repro.nn.pooling as pooling
    import repro.obs.recorder as obs_recorder
    import repro.persist as persist
    import repro.runtime.client as client
    import repro.runtime.cohort as cohort
    import repro.runtime.parallel as parallel
    import repro.runtime.simulator as simulator
    import repro.scale.cache as scale_cache
    import repro.scale.population as scale_population

    for cls, prefix in (
        (conv.Conv2d, "nn.Conv2d"),
        (pooling.MaxPool2d, "nn.MaxPool2d"),
        (layers.Linear, "nn.Linear"),
        (cohort_nn.CConv2d, "cohort_nn.CConv2d"),
        (cohort_nn.CLSTM, "cohort_nn.CLSTM"),
        (cohort_nn.CLinear, "cohort_nn.CLinear"),
    ):
        rec.patch(cls, "forward", f"{prefix}.forward")
        rec.patch(cls, "backward", f"{prefix}.backward")
    rec.patch(client, "softmax_cross_entropy", "nn.loss")
    rec.patch(optim.SGD, "step", "nn.SGD.step")
    rec.patch(cohort_nn.CohortSGD, "step", "cohort_nn.CohortSGD.step")
    rec.patch(cohort.CohortEngine, "train_step", "cohort.train_step", observe=_cohort_slots)
    rec.patch(loader.BatchStream, "next_batch", "data.next_batch")
    rec.patch(client.SimClient, "train_step", "client.train_step")
    rec.patch(client.SimClient, "local_update", "client.local_update")
    for strategy in (fedca.FedCA, fedavg.FedAvg):
        rec.patch(
            strategy, "client_round", "strategy.client_round",
            client_of=lambda args: args[1].client_id,
        )
        rec.patch(strategy, "cohort_round", "strategy.cohort_round")
    rec.patch(core.AnchorRecorder, "record", "core.anchor_record")
    rec.patch(core.AnchorRecorder, "finalize", "core.anchor_finalize")
    rec.patch(core.EarlyStopPolicy, "decide", "core.earlystop_decide")
    rec.patch(core.EagerSchedule, "due", "core.eager_due")
    rec.patch(fedca, "deviated_layers", "core.retransmit_check")
    for fn in ("collect_earliest", "aggregate_updates", "apply_update"):
        rec.patch(simulator, fn, f"aggregation.{fn}")
    rec.patch(simulator.FederatedSimulator, "evaluate", "simulator.evaluate")
    rec.patch(parallel.ParallelExecutor, "run_round", "parallel.run_round")
    rec.patch(parallel.ParallelExecutor, "aggregate_round", "parallel.aggregate_round")
    for method in ("emit", "span", "merge_client_trace"):
        rec.patch(obs_recorder.TraceRecorder, method, "obs.emit")
    rec.patch(obs_recorder.TraceRecorder, "flush", "obs.flush")
    rec.patch(persist, "save_run_checkpoint", "persist.checkpoint_save")
    rec.patch(scale_cache.ResidentClientCache, "acquire", "scale.acquire")
    rec.patch(scale_population.ClientFactory, "create", "scale.create")
