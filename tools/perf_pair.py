"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/perf_pair.py --base REV --workload NAME --pairs K

Exports ``REV`` with ``git archive`` into a temporary directory and runs
``perfbench/run.py`` in both trees ``K`` times, seeds 1..K, alternating which
tree goes first, each run for ``BENCHMARK.json``'s ``run_seconds``.  For every
end-to-end metric of ``BENCHMARK.json`` it prints the base median and
quartiles, the change median and "change better k/n" (pairs where the
change's value is better).  Exits 1 when a modeled metric
(``model_gpu_s``, ``device_peak_bytes``) differs on any seed, when the change
completes a smaller share of operations, or when a host metric's change median
is worse than the base median by more than its ``BENCHMARK.json`` bound.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELED = ("model_gpu_s", "device_peak_bytes")


def export(rev: str, dest: Path) -> None:
    """The committed tree of ``rev`` under ``dest`` (no git metadata)."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run's ``{metric: value}`` from its last stdout line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    doc = json.loads(out.strip().splitlines()[-1])
    return {k: m["value"] for k, m in doc["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = bench["run_seconds"]

    started = time.monotonic()
    scratch = Path(tempfile.mkdtemp(prefix="perf-pair-"))
    base_tree = scratch / "base"
    try:
        export(args.base, base_tree)
        runs = {"base": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            for side in order:
                runs[side].append(run(base_tree if side == "base" else ROOT,
                                      args.workload, seed, seconds))
            print(f"# pair {seed}/{args.pairs} done ({order[0]} first)", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = []
    print(f"{'metric':<18} {'base median':>12} {'base q1..q3':>25} {'change median':>14}"
          f" {'change better':>14}")
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(b[name], c[name]) for b, c in zip(runs["base"], runs["change"])
                 if b.get(name) is not None and c.get(name) is not None]
        if not pairs:
            continue
        base, change = [b for b, _ in pairs], [c for _, c in pairs]
        better = sum((c < b) if lower else (c > b) for b, c in pairs)
        q1, q3 = quartiles(base)
        bm, cm = statistics.median(base), statistics.median(change)
        print(f"{name:<18} {bm:>12.6g} {f'{q1:.6g}..{q3:.6g}':>25} {cm:>14.6g}"
              f" {f'{better}/{len(pairs)}':>14}")
        if name in MODELED:
            if any(b != c for b, c in pairs):
                failures.append(f"{name} differs on some seed")
        elif name == "ok_frac":
            if any(c < b for b, c in pairs):
                failures.append("ok_frac dropped on some seed")
        elif (cm > bm * (1 + metric["bound"])) if lower else (cm < bm * (1 - metric["bound"])):
            failures.append(f"{name} median {cm:.6g} is worse than {bm:.6g} "
                            f"beyond its bound {metric['bound']}")
    print(f"# {args.pairs} pairs of {args.workload} against {args.base} "
          f"in {time.monotonic() - started:.0f} s wall")
    for failure in failures:
        print(f"# FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
