#!/usr/bin/env python3
"""Report the simulator code that a set of coverage runs never entered.

    python3 .github/reachability.py [--root CHECKOUT] BUILD_DIR [...]

Each BUILD_DIR is a build tree compiled with `--coverage` whose binaries
have already run, so it holds .gcda count files. The script runs
`gcov --json-format --stdout` on every .gcda file below each tree, sums
the line and function counts over all trees (a header line reached from
any translation unit counts as reached), and prints, for files under
src/ (of this checkout, or of --root when the trees were built from
another one):

  * every function with zero executions, and
  * every run of zero-hit lines inside a function that did execute
    (lines with no executed line between them).

Statements that only report a fault (`fatal(`, `panic(`, `RIF_ASSERT`)
are skipped. The report describes one set of runs; it is not a pass/fail
gate, because test oracles and platform fallbacks are meant to stay
unreached by production runs. EXPERIMENTS.md ("Reachability audit")
gives the build and run commands.
"""

import argparse
import collections
import json
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAULT_MARKERS = ("fatal(", "panic(", "RIF_ASSERT")


def gcov_documents(build_dir):
    """Yield the parsed gcov JSON document of every .gcda under build_dir."""
    for dirpath, _, files in os.walk(build_dir):
        gcdas = sorted(f for f in files if f.endswith(".gcda"))
        if not gcdas:
            continue
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--demangled-names",
             "--object-directory", dirpath] + gcdas,
            cwd=dirpath, capture_output=True, text=True, check=True).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def source_path(root, doc, entry):
    """The root-relative path of a gcov file entry, or None outside src/."""
    path = entry["file"]
    if not os.path.isabs(path):
        path = os.path.join(doc["current_working_directory"], path)
    rel = os.path.relpath(os.path.realpath(path), root)
    return rel if rel.startswith("src" + os.sep) else None


def collect(root, build_dirs):
    """Sum line counts per (file, line) and function counts per source
    span over every tree; template and inline copies share a span."""
    lines = collections.defaultdict(int)
    funcs = {}  # (file, start, end) -> [hits, demangled name]
    for build_dir in build_dirs:
        for doc in gcov_documents(build_dir):
            for entry in doc["files"]:
                rel = source_path(root, doc, entry)
                if rel is None:
                    continue
                for fn in entry["functions"]:
                    key = (rel, fn["start_line"], fn["end_line"])
                    slot = funcs.setdefault(
                        key, [0, fn.get("demangled_name", fn["name"])])
                    slot[0] += fn["execution_count"]
                for ln in entry["lines"]:
                    lines[(rel, ln["line_number"])] += ln["count"]
    return lines, funcs


class Source:
    """Per-file sets of fault-report lines: every line of a statement
    that calls fatal(), panic() or RIF_ASSERT, up to its closing `;`."""

    def __init__(self, root):
        self.root = root
        self.files = {}

    def is_fault_line(self, path, number):
        if path not in self.files:
            with open(os.path.join(self.root, path), errors="replace") as f:
                text = f.read().splitlines()
            fault = set()
            in_statement = False
            for n, line in enumerate(text, 1):
                in_statement = in_statement or any(
                    m in line for m in FAULT_MARKERS)
                if in_statement:
                    fault.add(n)
                    in_statement = not line.rstrip().endswith(";")
            self.files[path] = fault
        return number in self.files[path]


def unreached(root, lines, funcs):
    """(dead functions, zero-hit line runs of reached functions)."""
    src = Source(root)
    dead = sorted((path, start, end, name)
                  for (path, start, end), (hits, name) in funcs.items()
                  if hits == 0)
    dead_lines = set()
    for path, start, end, _ in dead:
        dead_lines.update((path, n) for n in range(start, end + 1))

    runs = []
    open_run = None
    for path, number in sorted(lines):
        if (path, number) in dead_lines or src.is_fault_line(path, number):
            continue
        if lines[(path, number)] > 0:
            open_run = None
        elif open_run is not None and open_run[0] == path:
            open_run[2] = number
            open_run[3] += 1
        else:
            open_run = [path, number, number, 1]
            runs.append(open_run)
    return dead, runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=ROOT,
                    help="checkout the trees were built from "
                         "(default: this one)")
    ap.add_argument("build_dirs", nargs="+",
                    help="--coverage build trees holding .gcda files")
    args = ap.parse_args()

    root = os.path.realpath(args.root)
    lines, funcs = collect(root, args.build_dirs)
    if not lines:
        raise SystemExit("reachability: no src/ coverage data found "
                         "under " + ", ".join(args.build_dirs))
    dead, runs = unreached(root, lines, funcs)

    print(f"== {len(dead)} unreached functions ==")
    for path, start, end, name in dead:
        print(f"{path}:{start}-{end}  {name}")
    run_lines = sum(r[3] for r in runs)
    print(f"== {len(runs)} unreached line runs ({run_lines} lines) "
          "in reached functions ==")
    for path, first, last, count in runs:
        span = f"{first}" if first == last else f"{first}-{last}"
        print(f"{path}:{span}  ({count} lines)")
    hit = sum(1 for v in lines.values() if v > 0)
    print(f"== src/ lines executed: {hit} of {len(lines)} ==")


if __name__ == "__main__":
    main()
