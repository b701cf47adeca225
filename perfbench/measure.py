"""One workload and one seed, measured in this process (a child of run.py).

Order of work:

1. set up the environment several times and keep the median (``setup_s``;
   a second batch of set-ups follows the round loop);
2. run the round budget as a closed loop: a round starts only after the
   previous one has aggregated, and each round is timed on its own
   (``round_wall_s`` is their mean: see ``measure``);
3. check the engine guard and the run's outputs, then compare a short
   prefix with the workload's oracle (a repeat on the same engine, or a
   serial run of the same config);
4. with ``trace``, re-run a prefix with the span wrappers and the phase
   profiler installed and derive the per-layer metrics from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from spans import LAYER_SPANS, SpanRecorder, instrument, summarize
from workloads import Env, Workload

#: Rounds compared between a run and its oracle.
PREFIX_ROUNDS = 2
#: Run-level cohort-vs-serial tolerance documented in tests/test_cohort.py:
#: timelines, bytes and collected sets exact; accuracy within 0.02.
COHORT_ACCURACY_ATOL = 0.02
#: Set-up is timed in two batches, before and after the round loop, so the
#: median spans two moments of the host's drifting speed. A batch repeats
#: until it has spent this much wall time, within the repeat bounds.
SETUP_BUDGET_S = 0.5
SETUP_REPEATS = (3, 15)
#: Phrases of the fallback warnings in runtime/parallel.py and
#: runtime/cohort.py: the engine that ran is not the one asked for.
FALLBACK_PHRASES = ("falling back", "finishing the run serially", "disabled for this run")
#: Depth-0 phases of the simulator's PhaseProfiler.
PHASES = ("select", "broadcast", "client.train", "collect", "aggregate",
          "evaluate", "telemetry", "checkpoint")

_clock = time.perf_counter  # reprolint: allow[DET002] benchmark measures wall-clock by design


# ----------------------------------------------------------------------
# Statistics and digests
# ----------------------------------------------------------------------
def tail_percentile(values: list[float]) -> tuple[int, float, int] | None:
    """Highest integer percentile with at least ten samples beyond it.

    Nearest rank: the p-th percentile is the k-th smallest value with
    ``k = ceil(p * n / 100)``; ``n - k`` samples lie beyond it. Returns
    ``(p, value, samples beyond)``, or None when ``n < 11``.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        k = max(1, math.ceil(p * n / 100))
        if n - k >= 10:
            return p, xs[k - 1], n - k
    return None


def history_digest(records) -> str:
    """SHA-256 of the full-fidelity export of ``records`` (exact floats)."""
    from repro.runtime import RunHistory, history_to_dict

    history = RunHistory()
    for record in records:
        history.append(record)
    blob = json.dumps(history_to_dict(history)["records"], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compare_close(records, reference) -> str | None:
    """Cohort-vs-serial prefix check; returns the problem or None."""
    for r, s in zip(records, reference):
        if (r.end_time, r.total_bytes, r.collected_clients) != (
            s.end_time, s.total_bytes, s.collected_clients
        ):
            return f"round {r.round_index}: timeline, bytes or collected set differ from serial"
        if abs(r.accuracy - s.accuracy) > COHORT_ACCURACY_ATOL:
            return (f"round {r.round_index}: accuracy {r.accuracy} vs serial "
                    f"{s.accuracy} (atol {COHORT_ACCURACY_ATOL})")
    return None


def fallback_warnings(caught: list) -> list[str]:
    return [
        f"fallback warning: {w.message}"
        for w in caught
        if issubclass(w.category, RuntimeWarning)
        and any(p in str(w.message) for p in FALLBACK_PHRASES)
    ]


def engine_problems(wl: Workload, env: Env) -> list[str]:
    """Evidence that the intended engine did not run (empty when it did)."""
    executor = env.sim.executor
    if wl.engine.startswith("parallel") and not executor.ipc_stats():
        return ["parallel engine moved no IPC bytes"]
    if wl.engine.startswith("cohort") and not executor.occupancy()["steps"] > 0:
        return ["cohort engine ran no batched step"]
    return []


# ----------------------------------------------------------------------
# Process memory
# ----------------------------------------------------------------------
def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def forked_children(pid: int) -> list[int]:
    """Live children of ``pid`` running its own command line: the engine's
    forked workers (not, e.g., the shared-memory resource tracker)."""
    own = _cmdline(pid)
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid and _cmdline(int(entry)) == own:
            out.append(int(entry))
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its live forked workers."""
    me = os.getpid()
    kb = _vm_hwm_kb(me) + sum(_vm_hwm_kb(pid) for pid in forked_children(me))
    return kb / 1024.0


# ----------------------------------------------------------------------
# The closed round loop
# ----------------------------------------------------------------------
@dataclass
class RoundLog:
    attempted: int
    walls: list[float] = field(default_factory=list)
    records: list = field(default_factory=list)
    failed: int = 0
    error: str | None = None


def timed_round(env: Env, i: int, rounds: int) -> tuple[float, Any]:
    """Run round ``i`` of ``rounds``; returns its wall seconds and record.

    A round's window holds ``run_round``, the checkpoint due after it and,
    after the last round, the trace flush ``FederatedSimulator.run`` does.
    """
    from repro import persist

    sim = env.sim
    start = _clock()
    record = sim.run_round()
    if env.checkpoint_every and (i + 1) % env.checkpoint_every == 0:
        with sim.profiler.phase("checkpoint"):
            persist.save_run_checkpoint(sim, str(env.checkpoint_dir))
    if i == rounds - 1 and env.recorder is not None:
        env.recorder.flush()
    return _clock() - start, record


def run_rounds(env: Env, rounds: int) -> RoundLog:
    """Run ``rounds`` rounds back to back, timing each one.

    A round fails when it raises (every later round then fails too) or
    reports a non-finite accuracy or loss.
    """
    log = RoundLog(attempted=rounds)
    for i in range(rounds):
        try:
            wall, record = timed_round(env, i, rounds)
        except Exception:
            log.error = traceback.format_exc()
            log.failed += rounds - i
            break
        log.walls.append(wall)
        log.records.append(record)
        if not (math.isfinite(record.accuracy) and math.isfinite(record.mean_loss)):
            log.failed += 1
    return log


def timed_setups(wl: Workload, seed: int, workdir: Path, keep: bool) -> tuple[list[float], Env | None]:
    """Build the environment repeatedly; returns the times and, with
    ``keep``, the last environment (otherwise every one is closed)."""
    times: list[float] = []
    env = None
    lo, hi = SETUP_REPEATS
    while len(times) < lo or (sum(times) < SETUP_BUDGET_S and len(times) < hi):
        if env is not None:
            env.close()
        start = _clock()
        env = wl.build(seed, workdir / f"setup{len(times)}")
        times.append(_clock() - start)
    if not keep:
        env.close()
        env = None
    return times, env


def output_problems(wl: Workload, env: Env, log: RoundLog) -> dict[str, str | None]:
    """Checks on the timed run's own outputs (run after ``env.close()``)."""
    from repro.persist import (
        CheckpointCorruptError,
        CheckpointFormatError,
        CheckpointNotFoundError,
        RunCheckpoint,
        find_latest_checkpoint,
    )

    checks: dict[str, str | None] = {}
    checks["target"] = (
        None if any(r.accuracy >= wl.target for r in log.records)
        else f"target accuracy {wl.target} not reached in {len(log.records)} rounds"
    )
    if env.recorder is not None:
        dropped = env.recorder.sink_dropped_events
        checks["trace-sink-drops"] = f"{dropped} events dropped" if dropped else None
    if env.checkpoint_every:
        expected = len(log.records) - len(log.records) % env.checkpoint_every
        try:
            got = RunCheckpoint.load(
                find_latest_checkpoint(str(env.checkpoint_dir))).rounds_completed
            checks["checkpoint-loads"] = (
                None if got == expected
                else f"last checkpoint holds {got} rounds, expected {expected}"
            )
        except (OSError, CheckpointCorruptError, CheckpointFormatError,
                CheckpointNotFoundError) as exc:
            checks["checkpoint-loads"] = f"last checkpoint does not load: {exc!r}"
    return checks


# ----------------------------------------------------------------------
# Per-layer metrics of the traced prefix
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _checkpoint_bytes(env: Env) -> int:
    """Size of the newest checkpoint (payload plus manifest), or 0."""
    from repro.persist import list_checkpoints
    from repro.persist.container import manifest_path

    if env.checkpoint_dir is None or not env.checkpoint_dir.is_dir():
        return 0
    complete = list_checkpoints(str(env.checkpoint_dir))
    if not complete:
        return 0
    path = complete[-1][1]
    return os.path.getsize(path) + os.path.getsize(manifest_path(path))


def layer_metrics(env: Env, log: RoundLog, spans: SpanRecorder, profiler) -> dict[str, float]:
    """Every per-layer metric, per round of the traced prefix."""
    from repro.runtime.transport import BROADCAST_SECONDS

    n = len(log.records)
    out: dict[str, float] = {}
    laps = profiler.round_breakdowns()
    for phase in PHASES:
        out["simulator." + phase.replace(".", "_") + "_s"] = (
            sum(lap.get(phase, 0.0) for lap in laps) / n)
    summary = summarize(spans.spans)
    for name in LAYER_SPANS:
        self_s, calls = summary.get(name, (0.0, 0))
        if name != "simulator.evaluate":  # its time is the evaluate phase
            out[f"{name}_s"] = self_s / n
        out[f"{name}.calls"] = calls / n

    live = spans.tallies.get("cohort.live", 0.0)
    out["cohort.steps"] = out.pop("cohort.train_step.calls")
    out["cohort.member_steps"] = live / n
    out["cohort.occupancy"] = _ratio(live, spans.tallies.get("cohort.slots", 0.0))

    events = [ev for r in log.records for ev in r.client_events.values()]
    optimized = [ev for ev in events if ev.get("anchor") is False]
    out["core.early_stop_ratio"] = _ratio(
        sum(ev.get("early_stop_iteration") is not None for ev in optimized), len(optimized))
    out["core.retransmit_ratio"] = _ratio(
        sum(len(ev.get("retransmitted", ())) for ev in events),
        sum(len(ev.get("eager", ())) for ev in events))
    out["core.iterations_run_ratio"] = _ratio(
        sum(r.mean_iterations for r in log.records), n * env.sim.local_iterations)
    out["aggregation.collected_ratio"] = _ratio(
        sum(len(r.collected_clients) for r in log.records),
        sum(len(r.collected_clients) + len(r.straggler_clients) for r in log.records))

    ipc = env.sim.executor.ipc_stats()
    for transport in ("pipe", "shm"):
        out[f"transport.{transport}_bytes_per_round"] = sum(
            v for k, v in ipc.items() if f'transport="{transport}"' in k) / n
    out["transport.broadcast_s"] = ipc.get(BROADCAST_SECONDS, 0.0) / n

    wire = [ev["wire"] for ev in events if "wire" in ev]
    raw = sum(w["raw_bytes"] for w in wire)
    sent = sum(w["wire_bytes"] for w in wire)
    out["wire.raw_bytes_per_round"] = raw / n
    out["wire.wire_bytes_per_round"] = sent / n
    out["wire.ratio"] = _ratio(sent, raw)

    rec = env.recorder
    out["obs.events"] = (rec.num_events / n) if rec is not None else 0.0
    out["obs.trace_bytes"] = (
        env.trace_path.stat().st_size / n if env.trace_path is not None else 0.0)
    out["obs.sink_dropped_events"] = float(rec.sink_dropped_events if rec is not None else 0)
    out["persist.checkpoint_bytes"] = float(_checkpoint_bytes(env))

    cache = env.sim.population.cache if env.sim.population is not None else None
    out["scale.evictions"] = cache.evictions / n if cache is not None else 0.0
    out["scale.rehydrations"] = cache.rehydrations / n if cache is not None else 0.0
    out["scale.resident_hit_ratio"] = _ratio(
        out["scale.acquire.calls"] - out["scale.create.calls"], out["scale.acquire.calls"])
    return out


def traced_prefix(wl: Workload, seed: int, workdir: Path) -> tuple[dict[str, float], list]:
    """Run the first ``wl.traced_rounds`` rounds on two fresh environments,
    one untraced and one traced, alternating round by round.

    Returns the per-layer metrics and both histories. The two runs take
    turns going first, so the host's drifting speed hits both alike and
    their mean round walls differ by the tracing overhead. The wrappers
    are installed while the traced environment is built and while it runs
    a round. Forked workers inherit them, but their spans stay in the
    workers: for a parallel engine only parent-side spans are measured.
    """
    from repro.obs import PhaseProfiler

    spans, profiler = SpanRecorder(), PhaseProfiler()
    rounds = wl.traced_rounds
    envs = {False: wl.build(seed, workdir / "untraced")}
    logs = {False: RoundLog(attempted=rounds), True: RoundLog(attempted=rounds)}
    try:
        instrument(spans)
        try:
            envs[True] = wl.build(seed, workdir / "traced", profiler=profiler)
        finally:
            spans.restore()
        for i in range(rounds):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    instrument(spans)
                    spans.round_index = i
                try:
                    wall, record = timed_round(envs[traced], i, rounds)
                finally:
                    if traced:
                        spans.round_index = None
                        spans.restore()
                logs[traced].walls.append(wall)
                logs[traced].records.append(record)
    finally:
        for env in envs.values():
            env.close()
    layers = layer_metrics(envs[True], logs[True], spans, profiler)
    layers["trace.round_wall_s"] = statistics.fmean(logs[True].walls)
    layers["trace.overhead_s"] = layers["trace.round_wall_s"] - statistics.fmean(
        logs[False].walls)
    layers["trace.worker_side_unmeasured"] = 1.0 if wl.engine.startswith("parallel") else 0.0
    return layers, [logs[False].records, logs[True].records]


# ----------------------------------------------------------------------
# The whole measurement
# ----------------------------------------------------------------------
def measure(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict[str, Any]:
    """Measure one workload; returns the child's result document."""
    rounds = wl.rounds(seconds)
    checks: dict[str, str | None] = {}  # check name -> None (ok) or the problem
    layers = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        setups, env = timed_setups(wl, seed, workdir / "main", keep=True)
        log = run_rounds(env, rounds)
        rss = peak_rss_mb()
        guard = engine_problems(wl, env)
        env.close()
        checks.update(output_problems(wl, env, log))
        setups += timed_setups(wl, seed, workdir / "after", keep=False)[0]

        prefix = min(PREFIX_ROUNDS, len(log.records))
        for oracle in wl.oracles:
            other = wl.build(seed, workdir / oracle,
                             executor=None if oracle == "repeat" else "serial")
            try:
                ref = run_rounds(other, prefix)
            finally:
                other.close()
            if ref.error is not None:
                checks[oracle] = f"the {oracle} run failed:\n{ref.error}"
            elif oracle == "serial-close":
                checks[oracle] = compare_close(log.records[:prefix], ref.records)
            else:
                same = history_digest(ref.records) == history_digest(log.records[:prefix])
                checks[oracle] = None if same else (
                    f"{prefix}-round history digest differs from the {oracle} run")

        if trace and log.error is None:
            layers, histories = traced_prefix(wl, seed, workdir / "prefix")
            expected = history_digest(log.records[: wl.traced_rounds])
            same = all(history_digest(h) == expected for h in histories)
            checks["traced-repeat"] = None if same else "a prefix re-run or tracing changed the history"
        guard = fallback_warnings(caught) + guard
    checks["engine-guard"] = "; ".join(guard) or None
    checks["rounds"] = log.error or (
        f"{log.failed} of {log.attempted} rounds failed" if log.failed else None)

    doc: dict[str, Any] = {
        "workload": wl.name,
        "seed": seed,
        "engine": wl.engine,
        "attempted": log.attempted,
        # A run that measured another engine counts every round as failed.
        "failed": log.attempted if guard else log.failed,
        "checks": checks,
        "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught}),
    }
    if guard or not log.records:
        return doc  # never report the timing of a run that failed the guard
    walls = log.walls
    hit = next((i for i, r in enumerate(log.records) if r.accuracy >= wl.target), None)
    doc["round_wall_median"] = statistics.median(walls)
    doc["round_wall_tail"] = tail_percentile(walls)
    doc["round_wall_samples"] = len(walls)
    doc["setup_samples"] = len(setups)
    doc["metrics"] = {
        "setup_s": statistics.median(setups),
        # The mean, not the median: the host's speed switches between fast
        # and slow spells of seconds to minutes, and the median of a run
        # jumps with the spell that holds its middle round, while the mean
        # moves only with the share of time spent in each.
        "round_wall_s": statistics.fmean(walls),
        "client_rounds_per_s": sum(
            len(r.collected_clients) + len(r.straggler_clients) for r in log.records
        ) / sum(walls),
        "final_accuracy": log.records[-1].accuracy,
        "uplink_bytes_per_round": statistics.fmean(r.total_bytes for r in log.records),
        "peak_rss_mb": rss,
        "wall_time_to_target_s": None if hit is None else sum(walls[: hit + 1]),
        "sim_time_to_target_s": None if hit is None else log.records[hit].end_time,
        "rounds_to_target": None if hit is None else hit + 1,
    }
    if layers is not None:
        doc["layers"] = layers
    return doc
