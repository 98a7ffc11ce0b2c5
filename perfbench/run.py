"""Benchmark of record for bgcapsule: training, evaluation and single-text prediction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_bgcapsule --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` of the same checkout, runs one
workload (see ``workloads.py``), checks the outputs against references
computed apart from the program (``checks.py``), prints a run record
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer
metrics from a traced run. Records also go to ``perfbench/out/``.

BLAS runs on one thread: the variable is set before numpy is imported,
and the count is read back from the library and recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_package():
    """Import bgcapsule from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bgcapsule
    except ImportError as exc:
        raise SystemExit(f"error: cannot import bgcapsule from {src}: {exc}")
    if Path(bgcapsule.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: bgcapsule imported from {bgcapsule.__file__}, not {src}")


def machine_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unread"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    _pin_blas_threads()
    _import_package()
    import workloads  # after the package path and BLAS threads are set

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    machine = machine_info()
    result = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), HERE / "out")
    rec = result["rec"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, not_measured = {}, []
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                raise RuntimeError(f"end-to-end metric {m['name']} was not measured")
            not_measured.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for kind in sorted(rec.attempted):
        print(f"ops {kind} attempted={rec.attempted[kind]} failed={rec.failed[kind]}")
    for kind, values in sorted(rec.samples.items()):
        print(f"samples {kind} n={len(values)}")
    for check in rec.checks:
        print(check.line())
    if result["absent"]:
        print("absent " + " ".join(result["absent"]))
    if not_measured:
        print("not_run " + " ".join(not_measured))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    unlisted = {k: v for k, v in result["metrics"].items() if k not in metrics}
    for name, value in unlisted.items():
        print(f"extra {name} {value}")

    correct = all(c.ok for c in rec.checks)
    line = {"correct": correct, "attempted": sum(rec.attempted.values()),
            "failed": sum(rec.failed.values()), "metrics": metrics}
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine,
                  checks=[c.line() for c in rec.checks], absent=result["absent"],
                  not_run=not_measured, samples_s=rec.samples, extra=unlisted)
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
