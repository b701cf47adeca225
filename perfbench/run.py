"""The repository's benchmark: four federated-learning workloads.

Run from the repository root::

    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload fedca-cnn-serial --seed 1 --trace 1

Each workload runs in a fresh child process of this one, with BLAS
pinned to one thread, as a closed loop of synchronous rounds. ``--trace 0``
prints every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` also
re-runs a prefix with span wrappers installed and prints every per-layer
metric instead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is not 0
when any correctness check or the engine guard fails. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A child gets this long before it is killed with its workers.
CHILD_TIMEOUT_S = 170
#: Environment of every child: 2 parallel workers x 2 BLAS threads would
#: oversubscribe the 2 cores the workloads are sized for.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-ipc"  # repro.runtime.transport.SEGMENT_PREFIX
#: Report-only metrics (see README.md for why they carry no bound).
REPORT_ONLY = {
    "wall_time_to_target_s": "s",
    "sim_time_to_target_s": "s",
    "rounds_to_target": "rounds",
}


def shm_segments() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}


def environment_info() -> dict:
    """What the numbers were measured on, recorded with each result set."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{k: os.environ.get(k) for k in PINNED},
    }


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from measure import measure
    from workloads import WORKLOADS

    doc = measure(WORKLOADS[args.child], args.seed, args.seconds, bool(args.trace),
                  Path(args.workdir))
    doc["environment"] = environment_info()
    print(json.dumps(doc))
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run_child(name: str, args) -> tuple[dict | None, str]:
    """Measure one workload in a fresh child; returns (document, problem)."""
    workdir = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "run.py"), "--child", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    before = shm_segments()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env={**os.environ, **PINNED}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, process_group=0,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child's group: it and its workers
        out, err = proc.communicate()
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    leaked = sorted(shm_segments() - before)
    if proc.returncode != 0:
        return None, f"child exited with {proc.returncode}:\n{err.strip()}"
    try:
        doc = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"child printed no result:\n{err.strip()}"
    doc["checks"]["no-shm-leak"] = f"left in {SHM_DIR}: {leaked}" if leaked else None
    return doc, ""


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _row(name: str, value, unit: str, note: str = "") -> None:
    print(f"   {name:<40} {_fmt(value):>14} {unit:<12} {note}".rstrip())


def report(doc: dict, spec: dict, trace: bool) -> None:
    """Human-readable block for one workload (goes before the JSON line)."""
    print(f"== {doc['workload']}  seed={doc['seed']}  engine={doc['engine']}  "
          f"rounds={doc['attempted']}  {'traced' if trace else 'timed, tracing off'}")
    print("   environment: " + " ".join(
        f"{k}={_fmt(v)}" for k, v in doc["environment"].items()))
    metrics = doc.get("metrics", {})
    for m in spec["end_to_end"]:
        note = ""
        if m["name"] == "setup_s" and metrics:
            note = f"median of {doc['setup_samples']} set-ups"
        elif m["name"] == "round_wall_s" and metrics:
            tail = doc["round_wall_tail"]
            note = f"mean; median {doc['round_wall_median']:.6g} s; " + (
                f"p{tail[0]} {tail[1]:.6g} s ({tail[2]} rounds beyond)" if tail
                else "no percentile has 10 rounds beyond it"
            ) + f"; n={doc['round_wall_samples']}"
        _row(m["name"], metrics.get(m["name"]), m["unit"], note)
    for name, unit in REPORT_ONLY.items():
        _row(name, metrics.get(name), unit, "report only")
    ratio = doc["failed"] / doc["attempted"] if doc["attempted"] else 0.0
    _row("failed_round_ratio", ratio, "ratio",
         f"report only; {doc['failed']} of {doc['attempted']} rounds")
    if trace:
        layers = doc.get("layers", {})
        for m in spec["per_layer"]:
            _row(m["name"], layers.get(m["name"]), m["unit"])
    for check, problem in doc["checks"].items():
        print(f"   check {check:<24} {'ok' if problem is None else 'FAILED: ' + problem}")
    for warning in doc["warnings"]:
        print(f"   warning: {warning}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names} or all")
    selected = names if args.workload == "all" else [args.workload]
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    results, problems = [], []
    for name in selected:
        doc, problem = run_child(name, args)
        if doc is None:
            problems.append(f"{name}: {problem}")
            continue
        report(doc, spec, bool(args.trace))
        results.append(doc)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if problems:
        return 1

    correct = all(p is None for doc in results for p in doc["checks"].values())
    metrics = {}
    for doc in results:
        values = doc.get("layers") if args.trace else doc.get("metrics")
        if values is None:
            continue
        prefix = "" if len(results) == 1 else f"{doc['workload']}/"
        for m in specs:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if len(metrics) == len(specs) * len(results):
        print(json.dumps({
            "correct": correct,
            "attempted": sum(doc["attempted"] for doc in results),
            "failed": sum(doc["failed"] for doc in results),
            "metrics": metrics,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
