"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/perf_pair.py --base REV --workload NAME --pairs K

Exports ``REV`` with ``git archive`` into a temporary directory and runs
``perfbench/run.py`` in both trees ``K`` times, seeds 1..K, alternating which
tree goes first, each run for ``BENCHMARK.json``'s ``run_seconds``.  For every
end-to-end metric of ``BENCHMARK.json`` it prints the base median and
quartiles, the change median, "change better k/n" (pairs where the change's
value is better), the paired bootstrap 95% CI of ``mean(change) /
mean(base)`` (``repro.obs.regress.bootstrap_ratio_ci``) and a verdict
(:func:`verdict`; ``exact`` or ``differs`` for a modeled metric).  Exits 1
when a modeled metric (``model_gpu_s``, ``device_peak_bytes``) differs on any
seed, when the change completes a smaller share of operations, or when a
host metric's verdict is ``worse``.
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from repro.obs.regress import bootstrap_ratio_ci  # noqa: E402

MODELED = ("model_gpu_s", "device_peak_bytes")
#: A gain needs the change to win this share of all pairs run.
WIN_SHARE = 0.9


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


def verdict(base: list[float], change: list[float], *, lower: bool, bound: float) -> str:
    """One host metric's verdict over paired runs ``base[i]``/``change[i]``.

    ``gain``: the change is better in at least ``WIN_SHARE`` of the pairs
    (ties count for neither) and its median beats the base median by more
    than the base's interquartile range.  ``worse``: the change median is
    worse than the base median by more than ``bound`` (a fraction of the
    base median).  Otherwise ``unresolved`` when the base runs spread wider
    than ``bound`` (interquartile range over median) and not every change
    run beats every base run, else ``holds``.
    """
    sign = 1 if lower else -1  # sign * (b - c) > 0: the change is better
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    bm, cm = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    if wins >= WIN_SHARE * len(base) and sign * (bm - cm) > q3 - q1:
        return "gain"
    if sign * (cm - bm) > bound * bm:
        return "worse"
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if q3 - q1 > bound * bm and not all_better:
        return "unresolved"
    return "holds"


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
          f" {'change better':>14} {'ratio 95% CI':>15}  verdict")
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
        lo, hi = bootstrap_ratio_ci(np.array(base), np.array(change))
        if name in MODELED:
            result = "differs" if any(b != c for b, c in pairs) else "exact"
            if result == "differs":
                failures.append(f"{name} differs on some seed")
        elif name == "ok_frac":
            result = "dropped" if any(c < b for b, c in pairs) else "holds"
            if result == "dropped":
                failures.append("ok_frac dropped on some seed")
        else:
            result = verdict(base, change, lower=lower, bound=metric["bound"])
            if result == "worse":
                failures.append(f"{name} median {cm:.6g} is worse than {bm:.6g} "
                                f"beyond its bound {metric['bound']}")
        print(f"{name:<18} {bm:>12.6g} {f'{q1:.6g}..{q3:.6g}':>25} {cm:>14.6g}"
              f" {f'{better}/{len(pairs)}':>14} {f'{lo:.3f}..{hi:.3f}':>15}  {result}")
    print(f"# {args.pairs} pairs of {args.workload} against {args.base} "
          f"in {time.monotonic() - started:.0f} s wall")
    for failure in failures:
        print(f"# FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
