#!/usr/bin/env python3
"""Protocol-discipline linter for the Sherman tree.

Four rule families, all cheap textual checks that run pre-build in CI:

1. raw-verb containment: constructing a mutating rdma::WorkRequest
   (Write / Cas / MaskedCas / Faa) is only legal inside the blessed
   protocol layers (the fabric itself, HOCL, the tree, recovery,
   migration, the extension hash table) and the fabric-layer unit test.
   Everywhere else must go through those wrappers -- a raw write from,
   say, route/ or cache/ bypasses lock/lease/intent discipline and is
   exactly what DMSan exists to catch at runtime. A deliberate exception
   carries an inline `// protocol-ok: <reason>` on the same line.

2. discarded coroutine: sim::Task<T> is lazy -- `qp.Post(wr);` without a
   co_await silently does NOTHING (no work request is ever posted). Any
   statement calling a task-returning fabric entry point (.Post/.PostBatch/
   .PostReadBatch/.Rpc) must co_await it, sim::Spawn it, bind it, or
   return it.

3. one representation per count: a count lives in a registry-owned
   obs::Counter that its component bumps where the work happens;
   collectors publish levels (gauges) only. Writing a count into a
   snapshot (`AddCounter(`) is legal only in src/obs/ (the registry
   itself) and src/bench/ (the telemetry exporter's op-attributed run.*
   counts).

4. one sealing decision: whether a written node is marked consistent by
   its node versions or by its checksum is decided once, in NodeView::Seal
   and NodeView::Reseal (src/core/node_layout.{h,cc}). Calling
   `UpdateChecksum(` or `BumpNodeVersions(` anywhere else in the program
   (tests may) re-makes that decision and can seal a node the wrong way.

Exit status 0 = clean, 1 = findings (printed as file:line: message).
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Layers allowed to build mutating work requests directly.
BLESSED_RAW_VERBS = (
    "src/rdma/",          # the verbs layer itself
    "src/lock/",          # HOCL lane CAS / release / renew
    "src/core/btree.cc",  # tree write-backs + root swap
    "src/recover/",       # intent publish/clear, replay write-backs
    "src/migrate/",       # copy-then-flip protocol
    "src/ext/",           # extension structures own their protocol
    "src/sanitizer/",     # the checker decodes, never posts
    "tests/rdma_test.cc",  # exercises the raw verbs layer by design
)

RAW_VERB_RE = re.compile(r"WorkRequest::(Write|Cas|MaskedCas|Faa)\s*\(")
SUPPRESS_RE = re.compile(r"//\s*protocol-ok:\s*\S")

# Lazy-task entry points whose result must be consumed.
TASK_CALL_RE = re.compile(r"\.\s*(Post|PostBatch|PostReadBatch|Rpc)\s*\(")
CONSUMED_RE = re.compile(
    r"co_await|co_return|\breturn\b|Spawn\s*\(|=|\bco_yield\b")

# Where a snapshot may be handed a count.
SNAPSHOT_COUNT_OWNERS = ("src/obs/", "src/bench/")
ADD_COUNTER_RE = re.compile(r"\bAddCounter\s*\(")

# Where a node may be sealed by hand: the sealing helpers and the tests.
SEAL_OWNERS = ("src/core/node_layout.h", "src/core/node_layout.cc", "tests/")
SEAL_RE = re.compile(r"\b(UpdateChecksum|BumpNodeVersions)\s*\(")

SCAN_DIRS = ("src", "tests", "bench", "examples")
SCAN_EXTS = (".cc", ".h", ".cpp", ".hpp")


def strip_strings_and_comments(text):
    """Blank out string/char literals and comments, preserving newlines and
    `protocol-ok` markers (kept so suppression survives the stripping)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            comment = text[i:j]
            out.append("// protocol-ok: x" if "protocol-ok" in comment else "")
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(text.count("\n", i, j) * "\n")
            i = j
        elif c == "'" and i > 0 and (text[i - 1].isalnum() or
                                     text[i - 1] == "_"):
            out.append(c)  # C++14 digit separator (10'000), not a char literal
            i += 1
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(q + q + text.count("\n", i, j) * "\n")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_statements(lines):
    """Yield (first_line_no, statement_text) joining lines up to ';' or '{'.

    Good enough for call-site linting; declarations and control flow join
    harmlessly into statements the rules ignore.
    """
    buf, start = [], None
    for ln, line in enumerate(lines, 1):
        if start is None and line.strip():
            start = ln
        buf.append(line)
        if ";" in line or "{" in line or "}" in line:
            yield start or ln, " ".join(buf)
            buf, start = [], None
    if buf:
        yield start or len(lines), " ".join(buf)


def lint_file(relpath, findings):
    path = os.path.join(ROOT, relpath)
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    text = strip_strings_and_comments(raw)
    lines = text.split("\n")
    raw_lines = raw.split("\n")

    blessed = any(relpath.startswith(p) or relpath == p
                  for p in BLESSED_RAW_VERBS)

    for ln, line in enumerate(lines, 1):
        if not blessed and RAW_VERB_RE.search(line):
            prev = lines[ln - 2] if ln >= 2 else ""
            if not (SUPPRESS_RE.search(line) or SUPPRESS_RE.search(prev)):
                findings.append(
                    f"{relpath}:{ln}: mutating WorkRequest built outside the "
                    f"blessed protocol layers (wrap it, or annotate "
                    f"`// protocol-ok: <reason>`)")

    if relpath.startswith("src/") and not relpath.startswith(
            SNAPSHOT_COUNT_OWNERS):
        for ln, line in enumerate(lines, 1):
            if ADD_COUNTER_RE.search(line):
                findings.append(
                    f"{relpath}:{ln}: count written into a metrics snapshot "
                    f"outside src/obs/ and src/bench/ (bump a registry "
                    f"Counter where the work happens; collectors publish "
                    f"gauges only)")

    if not relpath.startswith(SEAL_OWNERS):
        for ln, line in enumerate(lines, 1):
            if SEAL_RE.search(line):
                findings.append(
                    f"{relpath}:{ln}: node sealed outside NodeView::Seal / "
                    f"Reseal (core/node_layout.cc): call view.Seal(mode) "
                    f"after a write, view.Reseal(mode) when the node "
                    f"versions must stay")

    for ln, stmt in iter_statements(lines):
        if not TASK_CALL_RE.search(stmt):
            continue
        if CONSUMED_RE.search(stmt) or "protocol-ok" in stmt:
            continue
        # Declaration contexts (e.g. `sim::Task<T> Post(...)`) contain no
        # receiver-dot call after stripping, so reaching here means a real
        # discarded call.
        findings.append(
            f"{relpath}:{ln}: fabric call returns a lazy sim::Task that is "
            f"discarded -- nothing will be posted (co_await it, Spawn it, "
            f"or bind it)")


def main():
    findings = []
    for d in SCAN_DIRS:
        base = os.path.join(ROOT, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(SCAN_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), ROOT)
                    lint_file(rel.replace(os.sep, "/"), findings)
    for f in findings:
        print(f)
    if findings:
        print(f"check_protocol: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("check_protocol: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
