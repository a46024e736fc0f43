#!/usr/bin/env python3
"""A/B the repository benchmark between two source checkouts.

    scripts/perf_ab.py PARENT_DIR CHANGE_DIR [--workloads batch-knn,...]
        [--pairs 10] [--seed-base 21] [--seconds 20] [--build-root DIR]
        [--traced]

For each workload, runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` in both checkouts for N pairs (seeds seed-base ..
seed-base + N - 1), alternating which side goes first so drift hits both
sides alike. Each side builds under its own CARGO_TARGET_DIR
(BUILD_ROOT/parent and BUILD_ROOT/change; default: each checkout's
.bench_build), and the runs never overlap.

Prints, per workload and end-to-end metric, each side's median [Q1, Q3],
the change / parent median ratio and the pairs the change won (direction
from CHANGE_DIR/BENCHMARK.json). Exits 1 if any run fails or is incorrect,
or if any model_*, warp_eff or serve_* value differs within a pair: those
are modeled-clock figures, exact repeats for one seed.

With --traced, each workload also gets one `--trace 1` run per side (seed
seed-base, same --seconds), and the script exits 1 if any count-type
per-layer metric differs between them: every metric in a count, bytes,
ratio or fraction unit (knn.*, simt.* counts, exec.*, join.*, shard.*,
serve.* and replica.* counts, ...) except the host-clock ratio
obs.trace_overhead_frac. --pairs 0 runs only this check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("batch-knn", "allknn-join", "stream-churn")
MODELED_PREFIXES = ("model_", "warp_eff", "serve_")
COUNT_UNITS = ("count", "bytes", "ratio", "fraction")
HOST_CLOCK_RATIOS = ("obs.trace_overhead_frac",)


def run_side(checkout, build_dir, workload, seed, seconds, trace=False):
    """One perfbench run; returns {metric: {"value": v, "unit": u}}."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} answered incorrectly")
    return result["metrics"]


def traced_check(sides, builds, workload, seed, seconds):
    """Returns the count-type per-layer metrics that differ between sides."""
    traced = {side: run_side(sides[side], builds[side], workload, seed, seconds, trace=True)
              for side in ("parent", "change")}
    p, c = traced["parent"], traced["change"]
    counts = sorted(n for n, m in p.items()
                    if m["unit"] in COUNT_UNITS and n not in HOST_CLOCK_RATIOS)
    moved = [(n, p[n]["value"], c[n]["value"] if n in c else None) for n in counts
             if n not in c or c[n]["value"] != p[n]["value"]]
    return counts, moved


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def cell(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def directions(change_dir):
    try:
        with open(os.path.join(change_dir, "BENCHMARK.json")) as f:
            return {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    except (OSError, KeyError, ValueError):
        return {"host_qps": "higher"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=21)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--build-root", help="put both CARGO_TARGET_DIRs under this directory")
    ap.add_argument("--traced", action="store_true",
                    help="also diff one --trace 1 run per side; exit 1 if a count moved")
    a = ap.parse_args()

    sides = {"parent": os.path.abspath(a.parent_dir), "change": os.path.abspath(a.change_dir)}
    builds = {
        side: os.path.join(os.path.abspath(a.build_root), side) if a.build_root
        else os.path.join(path, ".bench_build")
        for side, path in sides.items()
    }
    better = directions(sides["change"])
    status = 0
    for workload in a.workloads.split(","):
        if a.traced:
            try:
                counts, moved = traced_check(sides, builds, workload, a.seed_base, a.seconds)
            except RuntimeError as e:
                print(f"perf_ab: {e}", file=sys.stderr)
                return 1
            for name, pv, cv in moved:
                print(f"TRACED MOVED {workload} seed {a.seed_base} {name}: {pv} -> {cv}")
                status = 1
            print(f"{workload} traced (seed {a.seed_base}): {len(counts) - len(moved)}/"
                  f"{len(counts)} count-type per-layer metrics identical", flush=True)
        if a.pairs < 1:
            continue
        runs = {"parent": [], "change": []}
        for i in range(a.pairs):
            seed = a.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    metrics = run_side(sides[side], builds[side], workload, seed, a.seconds)
                    runs[side].append({name: m["value"] for name, m in metrics.items()})
                except RuntimeError as e:
                    print(f"perf_ab: {e}", file=sys.stderr)
                    return 1
            p, c = runs["parent"][-1], runs["change"][-1]
            moved = [n for n in p if n.startswith(MODELED_PREFIXES) and p[n] != c.get(n)]
            for n in moved:
                print(f"MODEL MOVED {workload} seed {seed} {n}: {p[n]} -> {c.get(n)}")
                status = 1
            print(f"{workload} seed {seed}: host_qps parent {p.get('host_qps', 0):.0f} "
                  f"change {c.get('host_qps', 0):.0f}", flush=True)
        last_seed = a.seed_base + a.pairs - 1
        print(f"\n{workload} ({a.pairs} pairs, seeds {a.seed_base}-{last_seed}, {a.seconds:g} s)")
        print(f"{'metric':<24}{'parent median [Q1, Q3]':>34}{'change median [Q1, Q3]':>34}"
              f"{'ratio':>8}{'won':>7}")
        for name in runs["parent"][0]:
            pv = [r[name] for r in runs["parent"]]
            cv = [r[name] for r in runs["change"]]
            pq, cq = quartiles(pv), quartiles(cv)
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            won = "-"
            if name in better:
                sign = 1 if better[name] == "higher" else -1
                won = f"{sum(1 for x, y in zip(pv, cv) if sign * (y - x) > 0)}/{a.pairs}"
            print(f"{name:<24}{cell(pq):>34}{cell(cq):>34}{ratio:>8.3f}{won:>7}")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
