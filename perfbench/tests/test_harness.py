"""Tests of the benchmark harness itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import measure
from spans import Span, SpanRecorder, self_times, summarize
from workloads import WORKLOADS, Env, Workload

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "round", 0.0, 10.0, -1, 0, None),
        Span(1, "a", 1.0, 4.0, 0, 0, 3),
        Span(2, "b", 3.0, 6.0, 0, 0, 3),  # overlaps a: covered once
        Span(3, "leaf", 2.0, 3.0, 1, 0, 3),
        Span(4, "late", 9.0, 12.0, 0, 0, 3),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_summarize_counts_only_spans_inside_rounds():
    spans = [
        Span(0, "setup", 0.0, 1.0, -1, None, None),
        Span(1, "x", 1.0, 2.0, -1, 0, None),
        Span(2, "x", 2.0, 2.5, -1, 1, None),
    ]
    summary = summarize(spans)
    assert "setup" not in summary
    assert summary["x"][0] == pytest.approx(1.5)
    assert summary["x"][1] == 2


def test_wrappers_nest_and_carry_the_client_id():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    class Worker:
        def inner(self):
            return "done"

        def outer(self, client):
            return self.inner()

    class Client:
        client_id = 7

    rec.patch(Worker, "inner", "inner")
    rec.patch(Worker, "outer", "outer", client_of=lambda args: args[1].client_id)
    rec.round_index = 3
    assert Worker().outer(Client()) == "done"
    rec.restore()
    assert Worker.inner.__name__ == "inner" and not hasattr(Worker.inner, "__wrapped__")
    inner, outer = rec.spans  # completion order
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.sid and outer.parent == -1
    assert inner.client_id == outer.client_id == 7
    assert inner.round_index == outer.round_index == 3
    assert self_times(rec.spans)[outer.sid] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))


# ----------------------------------------------------------------------
# Percentile and sample count
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected_p, expected_rank",
    [(20, 50, 10), (30, 66, 20), (100, 90, 90), (11, 9, 1)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected_p, expected_rank):
    values = [float(i) for i in range(n, 0, -1)]  # order must not matter
    p, value, beyond = measure.tail_percentile(values)
    assert (p, value, beyond) == (expected_p, float(expected_rank), n - expected_rank)
    assert beyond >= 10


def test_tail_percentile_needs_eleven_samples():
    assert measure.tail_percentile([1.0] * 10) is None


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------
def _record(i, accuracy):
    from repro.runtime import RoundRecord

    return RoundRecord(
        round_index=i, start_time=float(i), end_time=i + 1.0, accuracy=accuracy,
        mean_loss=0.5, collected_clients=(0, 1), straggler_clients=(2,),
        mean_iterations=4.0, total_bytes=1000, client_events={0: {"anchor": True}},
    )


def test_perturbed_history_fails_the_digest_check():
    import numpy as np

    records = [_record(i, 0.5 + 0.1 * i) for i in range(3)]
    same = [_record(i, 0.5 + 0.1 * i) for i in range(3)]
    assert measure.history_digest(records) == measure.history_digest(same)
    perturbed = list(same)
    perturbed[2] = _record(2, float(np.nextafter(0.5 + 0.1 * 2, 1.0)))
    assert measure.history_digest(records) != measure.history_digest(perturbed)


# ----------------------------------------------------------------------
# Engine guard and per-layer names, on a tiny workload
# ----------------------------------------------------------------------
def _tiny(scheme: str, engine: str) -> Workload:
    def make(seed, workdir, executor, profiler):
        from repro.algorithms import build_strategy
        from repro.experiments.configs import get_workload, make_environment

        cfg = dataclasses.replace(
            get_workload("cnn"), num_clients=3, num_samples=300, local_iterations=2)
        strategy = build_strategy(scheme, cfg.optimizer_spec())
        return Env(make_environment(cfg, strategy, seed=seed, executor=executor,
                                    profiler=profiler))

    return Workload(name=f"tiny-{scheme}-{engine}", engine=engine,
                    target=0.0, min_rounds=2, nominal_round_s=1.0, traced_rounds=1,
                    oracles=(), make=make)


def test_engine_guard_fires_on_forced_fallback(tmp_path):
    doc = measure.measure(_tiny("fedprox", "cohort"), seed=0, seconds=0.0,
                          trace=False, workdir=tmp_path)
    assert "falling back to serial" in doc["checks"]["engine-guard"]
    assert doc["failed"] == doc["attempted"] == 2
    assert "metrics" not in doc  # never reported as a timing


def test_engine_guard_passes_when_the_engine_ran(tmp_path):
    doc = measure.measure(_tiny("fedavg", "cohort"), seed=0, seconds=0.0,
                          trace=False, workdir=tmp_path)
    assert doc["checks"]["engine-guard"] is None
    assert doc["failed"] == 0 and "metrics" in doc


def test_traced_run_produces_exactly_the_per_layer_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = _tiny("fedavg", "serial")
    layers, (untraced, traced) = measure.traced_prefix(wl, 0, tmp_path)
    assert measure.history_digest(untraced) == measure.history_digest(traced)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert layers["client.train_step.calls"] == 3 * 2  # clients x iterations
    assert layers["nn.SGD.step.calls"] == layers["client.train_step.calls"]


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
