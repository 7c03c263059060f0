#!/usr/bin/env python3
"""spdc-studio benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 45 --trace 0

``--workload all`` runs every workload in turn. Each workload runs in its
own fresh process (a closed loop with one client) for ``--seconds``; with
``--trace 0`` a few more fresh processes only set up, for the median
``setup_s``. The run prints the environment, one line per metric (name,
value, unit, workload) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
WORKLOADS = ("pipeline", "spectra")
SETUP_PROBES = 4      # set-up-only processes, besides the workload process
TIME_LIMIT_S = 170.0  # whole run, probes included

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work_dir = WORK / f"{workload}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(int(trace)),
              "--work-dir", str(work_dir)]
    try:
        setups = [] if trace else [
            _child(common + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        result = _child(common, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups.append(result["setup_s"])

    if trace:
        from tracing import PER_LAYER, TRACE_METRICS
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        units.update(TRACE_METRICS)
        values = result["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = {"pass_s": statistics.median(result["passes"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}

    print(f"env {workload}: {json.dumps(result['env'], sort_keys=True)}")
    passes = result["traced_passes" if trace else "passes"]
    print(f"{workload}: {len(passes)} pass(es), "
          f"{len(setups)} set-up samples")
    for name, unit in units.items():
        print(f"{workload:<11} {name:<36} {values[name]:>16.6g} {unit}")
    failed_frac = result["failed"] / max(result["attempted"], 1)
    print(f"{workload:<11} {'failed_frac':<36} {failed_frac:>16.6g} "
          f"({result['failed']} of {result['attempted']})")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "spdc_studio" / "__init__.py").is_file():
        print(f"error: no spdc_studio package under {SRC}; run from the root "
              f"of an spdc-studio checkout", file=sys.stderr)
        return 2
    # the build: byte-compile the package once, so no run pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    WORK.mkdir(exist_ok=True)

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            line = run_one(workload, args.seed, args.seconds,
                           bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
