"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from ``--seed`` under ``.perfbench_work/``,
drives the public API for about ``--seconds`` of timed work, checks every
output, prints a human-readable summary and, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` installs the layer wrappers and
reports the per-layer metrics instead.  Exits 2 without a result when the
program under test cannot be imported.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported: one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def _import_paths() -> None:
    """Make ``perfbench`` and the ``repro`` sources under ``src/`` importable."""
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A SIGTERM unwinds like an exception, so the oracle worker is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_paths()
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from perfbench import inputs, workloads

    if args.workload not in inputs.SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(inputs.SPECS)}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        with workloads.Oracle() as oracle:
            script = oracle(inputs.generate, args.workload, args.seed, run_dir)
            runner = workloads.Runner(script, args.seconds, bool(args.trace), started,
                                      oracle=oracle)
            runner.run()
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.txt"
            runner.tracer.write(spans)
            metrics = runner.per_layer()
            print(f"# spans: {len(runner.tracer.spans)} written to {spans.relative_to(ROOT)}")
        else:
            e2e = runner.end_to_end()
            cal = runner.calibration
            print(f"# speed factor {cal.factor():.4f}: calibration reference {workloads.CAL_REF_S} s"
                  f" / median of {len(cal.samples)} samples in this run")
            for name, (value, unit, clock, note) in e2e.items():
                shown = "n/a" if value is None else f"{value:.6g}"
                print(f"# {name:<18} {shown:>12} {unit:<5} [{clock}] {note}")
            metrics = {k: (v, unit) for k, (v, unit, _, _) in e2e.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for message in runner.messages:
        print(f"# FAILED {message}")
    clean = {}
    for name, (value, unit) in metrics.items():
        ok = value is not None and math.isfinite(value)
        clean[name] = {"value": value if ok else None, "unit": unit}
    correct = runner.failed == 0 and all(m["value"] is not None for m in clean.values())
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": clean,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
