"""One benchmark process: set up, then run one workload in a closed loop.

Started by run.py with ``src`` on PYTHONPATH; prints one JSON object as
its last line. With ``--setup-only`` it stops after set-up, which is how
run.py takes several set-up samples in fresh processes.

Set-up is the same for every workload: import the package, load the default
run config and both bundled fixtures, and make one small call through each
numerical layer so lazy initialisation (BLAS threads, scipy imports) is done
before the first timed pass.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(tracer) -> float:
    """Imports, config, fixtures and warm-up; returns seconds since start."""
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    from spdc_studio import config, fixtures, optics, spectral, tomography

    import workloads  # noqa: F401  (imports the rest of the package)

    if tracer is not None:
        tracer.install()
        root = tracer.open("bench.setup")
    config.load_run_config()
    reference = fixtures.load_reference_state()
    fixtures.load_measured_jsi()
    small = config.load_run_config(samples=128)
    jsa = optics.compute_jsa(config.make_grid(small), small.crystal,
                             small.pump)
    spectral.schmidt(jsa)
    tomography.mle_reconstruct(tomography.simulate_counts(
        reference, tomography.standard_16_settings(), 1e3, 0))
    if tracer is not None:
        tracer.close(root)
    return time.perf_counter() - T0


def _blas(package: str) -> dict:
    """BLAS library of a package and its configured thread count."""
    import ctypes
    import glob
    import importlib

    module = importlib.import_module(package)
    info = {}
    try:
        blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(module.__file__), os.pardir,
                                  f"{package}.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["library"] = os.path.basename(path)
                info["max_threads"] = fn()
                return info
    return info


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas("numpy"),
        "scipy_blas": _blas("scipy"),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "SPDC_STUDIO_THREADS")},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_dir: Path, tracer=None) -> dict:
    """Closed loop of passes for ``seconds``; at least one timed pass.

    The first pass is an untimed warm-up (its outputs are still checked).
    Untraced: every later pass runs the original functions. Traced: later
    passes alternate traced and untraced (at least one of each), so the
    traced run measures its own overhead.
    """
    from workloads import WORKLOADS, Ledger

    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, work_dir)
    workload.prepare()
    ledger = Ledger()
    times: dict[bool, list[float]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = trace and index % 2 == 1
        warm_up = index == 0
        if traced:
            tracer.install()
            root = tracer.open("bench.pass")
        t0 = time.perf_counter()
        out = workload.run_pass(ledger, index)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.close(root)
            tracer.uninstall()
        if not warm_up:
            times[traced].append(elapsed)
        workload.check(ledger, out)
        del out
        index += 1
        if time.perf_counter() >= deadline and times[False] and (
                times[True] or not trace):
            break
    return {"passes": times[False], "traced_passes": times[True],
            "attempted": ledger.attempted, "failed": ledger.failed,
            "failures": ledger.failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    setup_s = setup(tracer)
    if tracer is not None:
        tracer.uninstall()
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.work_dir, tracer))
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        result["env"] = environment()
        if tracer is not None:
            from tracing import per_layer_metrics
            layers = per_layer_metrics(tracer.spans)
            layers["trace.overhead_s"] = (
                statistics.median(result["traced_passes"])
                - statistics.median(result["passes"]))
            result["per_layer"] = layers
            tracer.write(args.work_dir.parent
                         / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
