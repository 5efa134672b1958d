#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench_e2e.cc).

Modes:
  bench_e2e.py
      every workload untraced, one process each; prints every metric as
      `workload metric value unit [n=samples]`. Exits 1 on a failed or
      wrong op, a lease steal, or a failed invariant/oracle check.
  bench_e2e.py --trace 1
      also runs each workload traced: per-layer self time, trace.lost_spans
      (must be 0), trace.host_overhead, and a check that the traced run's
      simulated metrics equal the untraced run's.
  bench_e2e.py --smoke
      every workload at 1/20 scale (keys and windows), one setup each.
  bench_e2e.py --workload W --seed N --seconds S --trace 0|1
      one run; the last stdout line is one JSON object with `correct`,
      `attempted`, `failed` and `metrics`: the end_to_end metrics of
      BENCHMARK.json untraced, its per_layer metrics traced.
  bench_e2e.py --seeds N [--workload W] [--out FILE]
      N seeds per workload; median, quartiles and spread per metric.
  bench_e2e.py --compare PARENT CHANGE [--pairs N] [--workload W]
      builds this benchmark against both source trees and runs N seed
      pairs per workload, alternating which side goes first; reports
      medians, quartiles, wins and a verdict per (workload, metric)
      against the BENCHMARK.json bounds: improved when the change wins at
      least 9 in 10 pairs by more than the parent's quartile spread;
      unresolved when that spread exceeds the bound; regressed when the
      change's median is worse by more than the bound.

bench_e2e links the `sherman` library target of the tree this file sits
in (of each tree, with --compare), built by that tree's own CMakeLists.txt
and settings into $CARGO_TARGET_DIR (default .bench_build) at the root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["ycsb-a-zipf", "read-cold-hints", "scan-write",
             "hotspot-hybrid", "ycsb-string"]
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.05


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(tree, name):
    """Builds bench_e2e against the library of `tree`; returns the binary
    path."""
    if not (Path(tree) / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no CMakeLists.txt under {tree}: nothing to "
                           "benchmark")
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = (ROOT / base / name).resolve()
    cfg = ["cmake", "-S", str(HERE), "-B", str(out),
           f"-DSHERMAN_ROOT={Path(tree).resolve()}"]
    jobs = str(os.cpu_count() or 2)
    # Compiler temporaries stay inside the build directory too.
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    for cmd in (cfg, ["cmake", "--build", str(out), "-j", jobs,
                      "--target", "bench_e2e"]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850, env=env)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise RuntimeError(f"build failed: {' '.join(cmd)}")
    return out / "bench_e2e"


def run_once(binary, workload, seed, seconds, trace, scale=1.0, setups=3,
             echo=True):
    """Runs one workload in its own process; returns its JSON result."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scale={scale}", f"--setups={setups}",
           f"--trace={int(trace)}"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=RUN_TIMEOUT_S)
    if r.stderr:
        sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload}: bench_e2e exited {r.returncode}")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def traced_pair(binary, workload, seed, seconds, scale):
    """Untraced then traced run of one seed. Returns (result, list of
    problems): the traced run's span and simulated metrics, the untraced
    run's host metrics, and trace.host_overhead."""
    plain = run_once(binary, workload, seed, seconds, False, scale, 1,
                     echo=False)
    traced = run_once(binary, workload, seed, seconds, True, scale, 1)
    problems = []
    for name, m in plain["metrics"].items():
        if not m["simulated"]:
            continue
        got = traced["metrics"][name]["value"]
        if got != m["value"]:
            problems.append(f"{name}: traced {got!r} != untraced {m['value']!r}")
    if traced["metrics"]["trace.lost_spans"]["value"] != 0:
        problems.append("trace.lost_spans > 0")
    overhead = (traced["metrics"]["host_us_per_op"]["value"] /
                plain["metrics"]["host_us_per_op"]["value"])
    # Host costs come from the untraced run: the traced one pays for the
    # spans it records.
    for name, m in plain["metrics"].items():
        if not m["simulated"]:
            traced["metrics"][name] = m
    traced["metrics"]["trace.host_overhead"] = {"value": overhead, "unit": "x"}
    print(f"{workload} trace.host_overhead {overhead:.6g} x", flush=True)
    for p in problems:
        log(f"{workload}: {p}")
    return traced, problems


def result_ok(res):
    return res["correct"] and res["failed"] == 0


def single_run(args):
    s = spec()
    binary = build(ROOT, "bench_e2e")
    if args.trace:
        res, problems = traced_pair(binary, args.workload, args.seed,
                                    args.seconds, 1.0)
        names = s["per_layer"]
    else:
        res = run_once(binary, args.workload, args.seed, args.seconds, False)
        problems = []
        names = s["end_to_end"]
    metrics = {}
    for m in names:
        got = res["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"bench_e2e did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = result_ok(res) and not problems
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def all_workloads(args):
    binary = build(ROOT, "bench_e2e")
    scale = SMOKE_SCALE if args.smoke else 1.0
    setups = 1 if args.smoke else 3
    bad = []
    for w in WORKLOADS:
        t0 = time.monotonic()
        res = run_once(binary, w, args.seed, args.seconds, False, scale, setups)
        if not result_ok(res):
            bad.append(f"{w}: failed ops or checks ({res['failed']} failed)")
        if args.trace:
            traced, problems = traced_pair(binary, w, args.seed, args.seconds,
                                           scale)
            bad += [f"{w}: {p}" for p in problems]
            if not result_ok(traced):
                bad.append(f"{w}: traced run failed its checks")
        log(f"{w}: {time.monotonic() - t0:.1f} s wall")
    for b in bad:
        print(f"FAIL {b}")
    return 1 if bad else 0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def seed_sweep(args):
    binary = build(ROOT, "bench_e2e")
    workloads = [args.workload] if args.workload else WORKLOADS
    summary = {}
    for w in workloads:
        values = {}
        for seed in range(1, args.seeds + 1):
            res = run_once(binary, w, seed, args.seconds, False, echo=False)
            if not result_ok(res):
                raise RuntimeError(f"{w} seed {seed}: failed checks")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[w] = {}
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread}
            print(f"{w} {name} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": args.seconds, "seeds": args.seeds,
                       "workloads": summary}, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


def verdict(parent, change, better, bound):
    """Verdict and win count for one (workload, metric): parent and change
    values of the same seeds, in pair order."""
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    worse = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        v = "unresolved"
    elif (wins >= 0.9 * len(parent) and sign * (cmed - pmed) > 0
          and abs(cmed - pmed) > pq3 - pq1):
        v = "improved"
    elif worse > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, wins


def compare(args):
    s = spec()
    trees = {"parent": args.compare[0], "change": args.compare[1]}
    bins = {side: build(tree, f"compare-{side}") for side, tree in trees.items()}
    workloads = [args.workload] if args.workload else WORKLOADS
    regressed = False
    for w in workloads:
        vals = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                res = run_once(bins[side], w, i + 1, args.seconds, False,
                               echo=False)
                if not result_ok(res):
                    raise RuntimeError(f"{w} {side} seed {i + 1}: failed checks")
                vals[side].append(res["metrics"])
        for m in s["end_to_end"]:
            par = [r[m["name"]]["value"] for r in vals["parent"]]
            chg = [r[m["name"]]["value"] for r in vals["change"]]
            v, wins = verdict(par, chg, m["better"], m["bound"])
            regressed |= v == "regressed"
            pq, cq = quartiles(par), quartiles(chg)
            print(f"{w} {m['name']} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f" change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] wins "
                  f"{wins}/{len(par)} bound {m['bound']} {v}", flush=True)
    return 1 if regressed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured host seconds per run "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--seeds", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    try:
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        if args.compare:
            return compare(args)
        if args.seeds:
            return seed_sweep(args)
        if args.workload:
            return single_run(args)
        return all_workloads(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"bench_e2e.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
