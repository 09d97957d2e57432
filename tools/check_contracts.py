#!/usr/bin/env python3
"""Repo-contract lint: mechanical invariants the library's determinism
and serialization guarantees rest on, enforced as a tier1 CTest gate.

Contracts checked, over everything under src/:

1. No ambient nondeterminism.  Reports are byte-identical across runs,
   platforms and thread counts, so wall-clock and hardware entropy are
   banned from the library: `std::random_device`, C `rand()`/`srand()`,
   `time(...)` and `std::chrono` have no business below src/.  (Tests,
   benches and tools may time things; the library may not.)

2. No unordered-container iteration feeding serialization.  JSON output
   is order-preserving by construction (util::Json keeps insertion
   order); iterating a `std::unordered_map` / `std::unordered_set` into
   any output would launder hash-order back in.  The library avoids the
   containers entirely — an allowlist below documents any deliberate
   exception (currently empty).

3. Header self-containment.  Every header under src/ must compile as
   its own translation unit (`g++ -fsyntax-only`), so include order
   never becomes load-bearing.

4. One receive chain.  `core::ChainPlan` alone lays out the streaming
   datapath, so a link, a lane tile, training and the stat engine all run
   the same chain.  Outside src/pipe/ and src/core/chain_plan.*, no line
   under src/ names a `pipe::` stage, pipeline, waveform tap or the
   `SamplerCdrSink`: a second instantiation of the chain cannot creep
   back.

Usage:  python3 tools/check_contracts.py [--repo-root DIR] [--skip-compile]
Exits nonzero with file:line diagnostics on any violation.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# Contract 1: each entry is (human label, compiled regex).  Patterns use
# lookbehinds so `end_time(`, `rise_time(` and `grand(` stay legal.
FORBIDDEN_TOKENS = [
    ("std::random_device (hardware entropy)",
     re.compile(r"std\s*::\s*random_device")),
    ("C rand()/srand() (global-state RNG)",
     re.compile(r"(?<![A-Za-z0-9_])s?rand\s*\(")),
    ("time() (wall-clock seeding)",
     re.compile(r"(?<![A-Za-z0-9_:.>])time\s*\(")),
    ("std::chrono (wall-clock in the library)",
     re.compile(r"std\s*::\s*chrono\b")),
]

# Contract 2.
UNORDERED_CONTAINERS = re.compile(
    r"(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\b|"
    r"#\s*include\s*<unordered_(?:map|set)>")

# Files allowed to use unordered containers (none today; add a path
# relative to the repo root plus a justification comment to except one).
UNORDERED_ALLOWLIST: set[str] = set()

# Contract 4: what builds the receive chain, and where it may be named.
CHAIN_PARTS = re.compile(
    r"\bpipe\s*::\s*(?:\w*Stage|\w*Pipeline|\w*WaveformTap|SamplerCdrSink)\b")
CHAIN_HOMES = ("src/pipe/", "src/core/chain_plan.")


def iter_source_lines(path: Path):
    """Yields (lineno, line) with line comments stripped, so prose like
    this file's own docstring can name the banned tokens."""
    in_block_comment = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        # Strip block comments that open (and maybe close) on this line.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
        cut = line.find("//")
        if cut >= 0:
            line = line[:cut]
        yield lineno, line


def check_tokens(src_root: Path, repo_root: Path) -> list[str]:
    failures = []
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(repo_root).as_posix()
        for lineno, line in iter_source_lines(path):
            for label, pattern in FORBIDDEN_TOKENS:
                if pattern.search(line):
                    failures.append(
                        f"{rel}:{lineno}: forbidden token: {label}")
            if rel not in UNORDERED_ALLOWLIST and \
                    UNORDERED_CONTAINERS.search(line):
                failures.append(
                    f"{rel}:{lineno}: unordered container in src/ — "
                    "hash-order iteration can leak into serialized output; "
                    "use std::map/std::vector or extend the allowlist with "
                    "a justification")
            if not rel.startswith(CHAIN_HOMES) and CHAIN_PARTS.search(line):
                failures.append(
                    f"{rel}:{lineno}: names a pipe:: stage, pipeline, "
                    "waveform tap or sink — only core::ChainPlan builds the "
                    "receive chain; run it through ChainPlan::run, pass, "
                    "stream or slicer_input")
    return failures


def check_headers_self_contained(src_root: Path, repo_root: Path,
                                 compiler: str) -> list[str]:
    failures = []
    headers = sorted(src_root.rglob("*.h"))
    with tempfile.TemporaryDirectory() as tmp:
        probe = Path(tmp) / "probe.cc"
        for header in headers:
            rel = header.relative_to(repo_root).as_posix()
            include = header.relative_to(src_root).as_posix()
            probe.write_text(f'#include "{include}"\n', encoding="utf-8")
            result = subprocess.run(
                [compiler, "-std=c++20", "-fsyntax-only",
                 "-I", str(src_root), str(probe)],
                capture_output=True, text=True)
            if result.returncode != 0:
                detail = (result.stderr or result.stdout).strip()
                failures.append(
                    f"{rel}: header is not self-contained:\n{detail}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--compiler", default="g++",
                        help="compiler for the header self-containment "
                             "probes (default: g++)")
    parser.add_argument("--skip-compile", action="store_true",
                        help="token/container contracts only (no compiler)")
    args = parser.parse_args()

    repo_root = args.repo_root.resolve()
    src_root = repo_root / "src"
    if not src_root.is_dir():
        print(f"check_contracts: no src/ under {repo_root}", file=sys.stderr)
        return 2

    failures = check_tokens(src_root, repo_root)
    if not args.skip_compile:
        failures += check_headers_self_contained(src_root, repo_root,
                                                 args.compiler)

    if failures:
        print(f"check_contracts: {len(failures)} violation(s)",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    n_files = sum(1 for p in src_root.rglob("*") if p.suffix in (".h", ".cc"))
    print(f"check_contracts: {n_files} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
