#!/usr/bin/env python3
"""Exact diff of two bench telemetry files (telemetry/BENCH_*.json).

Usage: bench_diff.py OLD NEW

Every field in these files comes from the deterministic simulator, so two
runs of the same config must match value for value; any difference is a
behavior change. Prints each differing JSON path with both values.

Exit status: 0 when the files match, or when their `config` objects differ
(the runs are not comparable: reported and skipped); 1 when the configs are
equal and some value differs; 2 on unreadable input.
"""

import json
import sys


def flatten(node, path, out):
    """Maps every leaf of `node` to its JSON path ($.a.b[3].c)."""
    if isinstance(node, dict):
        for key in sorted(node):
            flatten(node[key], f"{path}.{key}", out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            flatten(item, f"{path}[{i}]", out)
        if not node:
            out[path] = []
    else:
        out[path] = node


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    docs = []
    for name in argv[1:]:
        try:
            with open(name, encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            print(f"bench_diff: cannot read {name}: {e}", file=sys.stderr)
            return 2
    old, new = docs
    if old.get("config") != new.get("config"):
        print(f"bench_diff: {argv[1]} vs {argv[2]}: configs differ, "
              f"not comparable; skipped")
        return 0
    flat_old, flat_new = {}, {}
    flatten(old, "$", flat_old)
    flatten(new, "$", flat_new)
    paths = sorted(set(flat_old) | set(flat_new))
    diffs = []
    for path in paths:
        a = flat_old.get(path, "<absent>")
        b = flat_new.get(path, "<absent>")
        if a != b:
            diffs.append(f"{path}: {a!r} -> {b!r}")
    for line in diffs:
        print(line)
    if diffs:
        print(f"bench_diff: {len(diffs)} of {len(paths)} values differ",
              file=sys.stderr)
        return 1
    print(f"bench_diff: {argv[2]} matches {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
