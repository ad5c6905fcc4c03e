#!/usr/bin/env python3
"""Report, or gate on, the simulator code that coverage runs never entered.

    python3 .github/reachability.py [--root CHECKOUT] [--allow LIST] \\
        BUILD_DIR [...]

Each BUILD_DIR is a build tree compiled with `--coverage` whose binaries
have already run (`.github/reachability_runs.sh` drives them). The
script runs `gcov --json-format --stdout` on every object's notes file
below each tree, sums the line and function counts over all trees (a
header line reached from any translation unit counts as reached), and
prints, for files under src/ of the checkout (--root, default: this
one):

  * every function with zero executions, and
  * every run of zero-hit lines inside a function that did execute
    (lines with no executed line between them).

An object that no run binary linked has no count file; its functions
are listed with zero executions rather than skipped. Statements that
only report a fault (`fatal(`, `panic(`, `RIF_ASSERT`) are skipped in
the line runs.

Functions are named by their demangled name with lambda ordinals and
the standard library's default template arguments normalized away;
template and inline copies of one source span share one entry, and a
span whose copies carry different names (a function template) is named
with its template arguments and parameter list elided.

With --allow LIST the script is a gate. LIST holds one entry per line,
`<label> <path> <name>`, for every function that is meant to stay
unreached (see LABELS below); lines starting with `#` are comments.
The script exits non-zero if an unreached function has no entry, if an
entry names a function that is no longer unreached (a stale entry), or
if it saw no src/ file at all.
"""

import argparse
import collections
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAULT_MARKERS = ("fatal(", "panic(", "RIF_ASSERT")
LABELS = (
    "test-support",  # oracles and helpers tests use to build or read state
    "fallback",      # portable kernels the SIMD dispatch replaces
    "fault",         # fault reporting that successful runs never enter
    "model",         # model paths no scenario configures yet
    "frozen-bench",  # interfaces the frozen benchmark driver overrides
    "interface",     # overrides an interface requires but no caller uses
)

_STD_SPELLINGS = (
    ("std::__cxx11::basic_string<char, std::char_traits<char>, "
     "std::allocator<char> >", "std::string"),
    ("std::basic_string_view<char, std::char_traits<char> >",
     "std::string_view"),
    ("std::basic_ostream<char, std::char_traits<char> >", "std::ostream"),
)
_DEFAULT_ALLOCATOR = re.compile(r", std::allocator<[^<>]*> >")


def normalize(name):
    """The demangled name with lambda ordinals, ABI tags and default
    allocator/traits arguments removed, so that adding a lambda or
    moving code does not rename what an allow-list entry matches."""
    for long, short in _STD_SPELLINGS:
        name = name.replace(long, short)
    while True:
        shorter = _DEFAULT_ALLOCATOR.sub(">", name)
        if shorter == name:
            break
        name = shorter
    name = re.sub(r"\[abi:\w+\]", "", name)
    return re.sub(r"#\d+", "#", name)


def elide_arguments(name):
    """`name` with each outermost template argument list and parameter
    list replaced by `<...>` / `(...)` (`(anonymous namespace)` kept)."""
    out = []
    depth = 0
    i = 0
    while i < len(name):
        c = name[i]
        if depth == 0 and name.startswith("(anonymous namespace)", i):
            out.append("(anonymous namespace)")
            i += len("(anonymous namespace)")
            continue
        if c in "<(":
            if depth == 0:
                out.append("<...>" if c == "<" else "(...)")
            depth += 1
        elif c in ">)":
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out)


def gcov_documents(build_dir):
    """Yield the parsed gcov JSON document of every object under
    build_dir; an object without a count file reads as never run."""
    for dirpath, _, files in sorted(os.walk(build_dir)):
        notes = sorted(f for f in files if f.endswith(".gcno"))
        if not notes:
            continue
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--demangled-names",
             "--object-directory", dirpath] + notes,
            cwd=dirpath, capture_output=True, text=True, check=True).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def source_path(root, entry):
    """The root-relative path of a gcov file entry, or None outside src/.

    A relative entry is relative to the checkout root: the build passes
    -ffile-prefix-map=<root>/= (src/common/CMakeLists.txt), which turns
    every recorded source path into `src/...` whatever the build tree's
    working directory was. Absolute entries come from trees built
    without that flag."""
    path = entry["file"]
    if not os.path.isabs(path):
        path = os.path.join(root, path)
    rel = os.path.relpath(os.path.realpath(path), root)
    return rel if rel.startswith("src" + os.sep) else None


def collect(root, documents):
    """Sum line counts per (file, line) and function counts per source
    span over `documents`; template and inline copies share a span.

    Returns (lines, funcs): lines maps (file, line) to hits, funcs maps
    (file, start, end) to [hits, set of normalized names]."""
    lines = collections.defaultdict(int)
    funcs = {}
    for doc in documents:
        for entry in doc["files"]:
            rel = source_path(root, entry)
            if rel is None:
                continue
            for fn in entry["functions"]:
                key = (rel, fn["start_line"], fn["end_line"])
                slot = funcs.setdefault(key, [0, set()])
                slot[0] += fn["execution_count"]
                slot[1].add(normalize(fn.get("demangled_name", fn["name"])))
            for ln in entry["lines"]:
                lines[(rel, ln["line_number"])] += ln["count"]
    return lines, funcs


def span_name(names):
    """One stable name for a span's copies."""
    if len(names) == 1:
        return next(iter(names))
    return min(elide_arguments(n) for n in names)


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


def unreached(funcs):
    """The unreached functions as sorted (path, start, end, name)."""
    return sorted((path, start, end, span_name(names))
                  for (path, start, end), (hits, names) in funcs.items()
                  if hits == 0)


def unreached_line_runs(root, lines, dead):
    """Runs of zero-hit, non-fault lines inside reached functions, as
    [path, first, last, count]."""
    src = Source(root)
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
    return runs


def parse_allow(text):
    """{(path, name): label} from allow-list text; raises ValueError on
    a malformed line, an unknown label or a duplicate entry."""
    allow = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise ValueError(f"line {number}: expected "
                             f"'<label> <path> <name>', got {raw!r}")
        label, path, name = parts
        if label not in LABELS:
            raise ValueError(f"line {number}: unknown label {label!r} "
                             f"(expected one of {', '.join(LABELS)})")
        if (path, name) in allow:
            raise ValueError(f"line {number}: duplicate entry {path} {name}")
        allow[(path, name)] = label
    return allow


def compare(dead, allow):
    """(unlisted, stale): unreached functions without an allow-list
    entry, and entries that match no unreached function."""
    seen = {(path, name) for path, _, _, name in dead}
    unlisted = [d for d in dead if (d[0], d[3]) not in allow]
    stale = sorted(key for key in allow if key not in seen)
    return unlisted, stale


def audit(root, documents, allow=None, out=sys.stdout):
    """Print the report for `documents` (parsed gcov JSON) to `out`;
    with an allow-list (from parse_allow), also print its unlisted and
    stale entries. Returns the exit status: 1 if the allow-list does
    not match the unreached functions, 0 otherwise. Raises SystemExit
    when the documents hold no src/ file."""
    lines, funcs = collect(root, documents)
    if not lines and not funcs:
        raise SystemExit("reachability: the coverage data holds no src/ "
                         f"file of {root}")
    dead = unreached(funcs)
    runs = unreached_line_runs(root, lines, dead)

    print(f"== {len(dead)} unreached functions ==", file=out)
    for path, start, end, name in dead:
        print(f"{path}:{start}-{end}  {name}", file=out)
    run_lines = sum(r[3] for r in runs)
    print(f"== {len(runs)} unreached line runs ({run_lines} lines) "
          "in reached functions ==", file=out)
    for path, first, last, count in runs:
        span = f"{first}" if first == last else f"{first}-{last}"
        print(f"{path}:{span}  ({count} lines)", file=out)
    hit = sum(1 for v in lines.values() if v > 0)
    print(f"== src/ lines executed: {hit} of {len(lines)} ==", file=out)

    if allow is None:
        return 0
    unlisted, stale = compare(dead, allow)
    by_label = collections.Counter(allow.values())
    print("== allow-list: " + ", ".join(
        f"{label} {by_label[label]}" for label in LABELS) + " ==", file=out)
    for path, start, end, name in unlisted:
        print(f"UNLISTED {path}:{start}-{end}  {name}", file=out)
    for path, name in stale:
        print(f"STALE {allow[(path, name)]} {path}  {name}", file=out)
    if unlisted or stale:
        print(f"reachability: {len(unlisted)} unreached function(s) "
              f"without an allow-list entry, {len(stale)} stale "
              "entr(y/ies): label the first or delete its code, delete "
              "the second", file=out)
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=ROOT,
                    help="checkout the trees were built from "
                         "(default: this one)")
    ap.add_argument("--allow",
                    help="allow-list of functions meant to stay "
                         "unreached; makes the script a gate")
    ap.add_argument("build_dirs", nargs="+",
                    help="--coverage build trees whose binaries ran")
    args = ap.parse_args()

    allow = None
    if args.allow:
        with open(args.allow) as f:
            try:
                allow = parse_allow(f.read())
            except ValueError as e:
                raise SystemExit(f"reachability: {args.allow}: {e}")
    root = os.path.realpath(args.root)
    return audit(root, (doc for d in args.build_dirs
                        for doc in gcov_documents(d)), allow)


if __name__ == "__main__":
    sys.exit(main())
