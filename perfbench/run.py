"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload serve-miss --seed 1 --seconds 45 --trace 0

``BENCHMARK.json`` gates the ``serve-miss`` and ``fleet-hit`` workloads;
``serve-hit`` runs the same way by hand (see ``perfbench/workloads.py``).

Runs from the root of a checkout and builds nothing: the program is the
pure-Python package under ``src/``.  Each run

1. sets the program up :data:`SETUP_REPS` times, each in a fresh process
   with its own codegen-cache and tuning-DB directories, and reports the
   median ``setup_s``;
2. measures in the last of those processes: a fixed number of 40-request
   calls sized from ``--seconds`` (see ``perfbench/workloads.py``), with
   tracing off (``--trace 0``: end-to-end metrics) or an untraced then a
   traced phase (``--trace 1``: the per-layer ledger, its table on stdout
   and a Chrome trace under ``.perfbench/traces/``);
3. checks every response (exact accounting, error budgets) and re-runs a
   seeded sample of served triples on the interpreter backend, bit for bit.

The last stdout line is the JSON result.  The exit code is 0 only when
every check passed.  All scratch files live under ``.perfbench/`` in the
checkout; each run's directory is removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-miss", "serve-hit", "fleet-hit")
#: Fresh-process set-ups per run; the last one also measures.
SETUP_REPS = 3
#: Hard limit on the whole run, below the 180 s a run may take.
RUN_BUDGET_S = 170.0
#: Child environment: one BLAS/OpenMP thread, no ambient tracing.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
UNSET_ENV = ("REPRO_TRACE", "REPRO_METRICS", "REPRO_CODEGEN_CACHE_MAX", "REPRO_TUNING_DB_MAX")


class BenchError(RuntimeError):
    pass


def _child_env(work: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_CODEGEN_CACHE"] = str(work / "codegen")
    env["REPRO_TUNING_DB"] = str(work / "tuning-db")
    env["TMPDIR"] = str(work / "tmp")
    return env


def _run_child(params: dict, work: Path, deadline: float) -> dict:
    """One measuring process; returns its JSON result."""
    (work / "tmp").mkdir(parents=True)
    params = dict(params, work_dir=os.path.relpath(work, ROOT))
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.workloads", json.dumps(params)],
        cwd=ROOT,
        env=_child_env(work),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # one process group: fleet workers included
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{params['mode']} process exceeded the run budget") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays of a crashed child
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{params['mode']} process exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{params['mode']} process printed no result")
    return json.loads(lines[-1])


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ROOT / ".perfbench"
    work = base / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    params = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    try:
        setups = []
        for rep in range(SETUP_REPS - 1):
            child = _run_child(dict(params, mode="setup"), work / f"setup-{rep}", deadline)
            setups.append(child["setup_s"])
        if args.trace:
            (base / "traces").mkdir(parents=True, exist_ok=True)
            params["chrome_trace"] = os.path.relpath(
                base / "traces" / f"{args.workload}-seed{args.seed}.json", ROOT
            )
        child = _run_child(dict(params, mode="measure"), work / "measure", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(child["setup_s"])
    for line in child["lines"]:
        print(line)
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in child["metrics"].items()
    }
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        for name, metric in metrics.items():
            print(f"{name:<20} {metric['value']:>14.6f} {metric['unit']}")
    return {
        "correct": bool(child["correct"]),
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
