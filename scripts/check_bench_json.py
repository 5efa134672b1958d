#!/usr/bin/env python3
"""Validate BENCH_*.json telemetry artifacts against schema v1.

Usage: check_bench_json.py FILE [FILE ...]
       check_bench_json.py --dir DIR
Exits non-zero (listing every violation) if any file fails.

--dir validates every BENCH_*.json in DIR and additionally requires the
FULL reference set (one artifact per bench binary) to be present, so a
bench that silently stopped emitting telemetry fails the check. It also
fails on any stray BENCH_*.json OUTSIDE DIR (in DIR's parent tree, up to
two levels): DIR is the single canonical home for bench artifacts, and a
stray copy at e.g. the repo root silently goes stale.

Schema v1 (see src/bench/report.h):
  schema_version : int == 1
  bench          : non-empty string
  config         : object of scalars
  metrics        : {"counters": {str: int}, "gauges": {str: number},
                    "histograms": {str: object}}
  percentiles    : {label: {mops, ops, measured_ns, p50_us, p90_us, p99_us}}
  series         : {label: [{"t_ns": int, "ops": int}, ...]}
  tables         : [{"title": str, "columns": [str], "rows": [[str]]}]
  gates          : {name: {"passed": bool, "value": number}}
"""
import glob
import json
import os
import sys

SCALAR = (str, int, float, bool)
RUN_FIELDS = ("mops", "ops", "measured_ns", "p50_us", "p90_us", "p99_us")

# The CI reference set: every smoke-run bench must leave its artifact.
FULL_SET = ("ablation", "churn", "elastic", "fig12", "fig14", "fig15",
            "fig16", "hybrid", "lookup1rtt", "pipeline", "rdwc", "recover",
            "varlen")


def check(path):
    errs = []

    def err(msg):
        errs.append(f"{path}: {msg}")

    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]

    for key in ("schema_version", "bench", "config", "metrics", "percentiles",
                "series", "tables", "gates"):
        if key not in doc:
            err(f"missing top-level key '{key}'")
    if errs:
        return errs

    if doc["schema_version"] != 1:
        err(f"schema_version is {doc['schema_version']!r}, expected 1")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        err("'bench' must be a non-empty string")

    if not isinstance(doc["config"], dict):
        err("'config' must be an object")
    else:
        for k, v in doc["config"].items():
            if not isinstance(v, SCALAR):
                err(f"config['{k}'] is not a scalar")

    m = doc["metrics"]
    if not isinstance(m, dict):
        err("'metrics' must be an object")
    else:
        for sect in ("counters", "gauges", "histograms"):
            if sect not in m:
                err(f"metrics missing '{sect}'")
            elif not isinstance(m[sect], dict):
                err(f"metrics['{sect}'] must be an object")
        for k, v in m.get("counters", {}).items():
            if not isinstance(v, int) or isinstance(v, bool):
                err(f"counter '{k}' is not an integer")
        for k, v in m.get("gauges", {}).items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                err(f"gauge '{k}' is not a number")
        for k, v in m.get("histograms", {}).items():
            if not isinstance(v, dict):
                err(f"histogram '{k}' is not an object")

    if not isinstance(doc["percentiles"], dict):
        err("'percentiles' must be an object")
    else:
        for label, run in doc["percentiles"].items():
            if not isinstance(run, dict):
                err(f"percentiles['{label}'] is not an object")
                continue
            for f in RUN_FIELDS:
                if f not in run:
                    err(f"percentiles['{label}'] missing '{f}'")
                elif not isinstance(run[f], (int, float)) or \
                        isinstance(run[f], bool):
                    err(f"percentiles['{label}']['{f}'] is not a number")

    if not isinstance(doc["series"], dict):
        err("'series' must be an object")
    else:
        for label, pts in doc["series"].items():
            if not isinstance(pts, list):
                err(f"series['{label}'] is not an array")
                continue
            last_t = -1
            for i, p in enumerate(pts):
                if not isinstance(p, dict) or "t_ns" not in p or "ops" not in p:
                    err(f"series['{label}'][{i}] lacks t_ns/ops")
                    break
                if not isinstance(p["t_ns"], int) or not isinstance(
                        p["ops"], int):
                    err(f"series['{label}'][{i}] t_ns/ops not integers")
                    break
                if p["t_ns"] < last_t:
                    err(f"series['{label}'] t_ns not monotonic at [{i}]")
                    break
                last_t = p["t_ns"]

    if not isinstance(doc["tables"], list):
        err("'tables' must be an array")
    else:
        for i, t in enumerate(doc["tables"]):
            if not isinstance(t, dict) or not all(
                    k in t for k in ("title", "columns", "rows")):
                err(f"tables[{i}] lacks title/columns/rows")
                continue
            if not all(isinstance(c, str) for c in t["columns"]):
                err(f"tables[{i}] columns must be strings")
            for j, row in enumerate(t["rows"]):
                if not isinstance(row, list) or not all(
                        isinstance(c, str) for c in row):
                    err(f"tables[{i}].rows[{j}] must be an array of strings")
                    break

    if not isinstance(doc["gates"], dict):
        err("'gates' must be an object")
    else:
        for name, g in doc["gates"].items():
            if not isinstance(g, dict) or "passed" not in g or "value" not in g:
                err(f"gates['{name}'] lacks passed/value")
            elif not isinstance(g["passed"], bool):
                err(f"gates['{name}'].passed is not a bool")

    return errs


def find_strays(canonical_dir):
    """BENCH_*.json files outside the canonical dir (walked from its parent).

    Hidden dirs and build trees are skipped: those hold transient local
    artifacts (benches run from a build cwd write ./telemetry there), not
    committed copies.
    """
    root = os.path.dirname(os.path.abspath(canonical_dir)) or "."
    canon = os.path.abspath(canonical_dir)
    strays = []
    for cur, dirs, files in os.walk(root):
        dirs[:] = [
            x for x in dirs
            if not x.startswith(".") and not x.startswith("build")
            and os.path.join(cur, x) != canon
        ]
        for f in files:
            if f.startswith("BENCH_") and f.endswith(".json"):
                strays.append(os.path.join(cur, f))
    return strays


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    paths = argv[1:]
    if paths[0] == "--dir":
        if len(paths) != 2:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        d = paths[1]
        paths = sorted(glob.glob(os.path.join(d, "BENCH_*.json")))
        for bench in FULL_SET:
            expect = os.path.join(d, f"BENCH_{bench}.json")
            if expect not in paths:
                failures += 1
                print(f"FAIL {expect}: missing from the reference set",
                      file=sys.stderr)
        for stray in sorted(find_strays(d)):
            failures += 1
            print(f"FAIL {stray}: bench JSON outside the canonical "
                  f"telemetry dir '{d}' (stale copy? move or delete it)",
                  file=sys.stderr)
    for path in paths:
        errs = check(path)
        if errs:
            failures += 1
            for e in errs:
                print(f"FAIL {e}", file=sys.stderr)
        else:
            print(f"OK   {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
