"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload train-toy --seed 0 --seconds 55 --trace 0

Workloads: train-toy, infer-wide, adapt-shift (see README.md); BENCHMARK.json
lists train-toy and adapt-shift.  BLAS is
pinned to one thread before numpy is imported, as ``sssm --single-thread``
does, and the run refuses to start if the pin did not take.  The program is
imported from ``src/`` of the checkout this file sits in.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans are written to ``perfbench/_out/``.  The line before it holds the
environment, the correctness checks and the op counts.  ``--smoke`` runs
the same code on tiny frames for the smoke test.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_OPS = 16


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train-toy", "infer-wide", "adapt-shift"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny frames and few ops, for the smoke test")
    return p.parse_args(argv)


def _blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(seed: int, blas_threads) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_runtime_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def _end_to_end(res, import_s: float) -> dict:
    import numpy as np

    start, end = res.window
    latencies = [e - s for s, e in res.ops.values()]
    # a failed op missed its latency: it counts as taking the whole window
    latencies += [end - start] * len(res.failed)
    p50, p75 = np.percentile(latencies, [50, 75]) * 1e3
    return {
        "latency_ms_p50": (float(p50), "ms"),
        "latency_ms_p75": (float(p75), "ms"),
        "pairs_per_s": (len(res.ops) / (end - start), "1/s"),
        "setup_s": (import_s + statistics.median(res.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if "numpy" in sys.modules:
        print("perfbench: numpy was imported before BLAS threads could be pinned", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "sssm" / "__init__.py").is_file():
        print(f"perfbench: no sssm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sssm
    import spans
    import workloads

    if Path(sssm.__file__).resolve().parent != ROOT / "src" / "sssm":
        print(f"perfbench: imported sssm from {sssm.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = _blas_runtime_threads()
    if blas_threads not in (None, 1):
        print(f"perfbench: BLAS runs {blas_threads} threads; refusing to measure", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.SIZES
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, workdir=workdir,
                            size=sizes[args.workload], min_ops=2 if args.smoke else MIN_OPS,
                            checkpoint_every=1 if args.smoke else 8, tracer=tracer)
    try:
        res = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = _end_to_end(res, import_s)
    checks = dict(res.checks)
    detail = {"workload": args.workload, "env": _environment(args.seed, blas_threads),
              "ops_attempted": len(res.ops) + len(res.failed), "ops_failed": len(res.failed),
              "setup_repeats_s": res.setup_s, "import_s": import_s,
              "latencies_ms": [round(1e3 * (e - s), 3) for s, e in res.ops.values()]}
    if tracer is not None:
        layers, trace_check = tracer.summary(res.ops)
        layers["process.minflt"] = (res.minflt / (len(res.ops) + len(res.failed)), "count")
        layers["trace.latency_ms_p50"] = metrics["latency_ms_p50"]
        layers["result.train_loss"] = (res.train_loss, "loss")
        layers["result.warp_error"] = (res.warp_error, "intensity")
        checks["trace_self_check"] = trace_check["ok"]
        detail["trace_check"] = trace_check
        metrics = layers
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    detail["checks"] = checks
    print(json.dumps(detail))
    print(json.dumps({
        "correct": all(checks.values()) and not res.failed,
        "attempted": detail["ops_attempted"],
        "failed": detail["ops_failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
