#!/usr/bin/env python3
"""Count non-test Rust lines in the workspace.

The rule: every tracked `.rs` file outside `tests/`, `crates/*/tests/`,
`crates/bench/`, `crates/shims/` and `perfbench/`, counted up to its first
`#[cfg(test)]` attribute that opens a `mod` (the unit-test module). Lines
after that point are test code and are not counted.

Usage:
    python3 scripts/loc.py            # total, then one row per file
    python3 scripts/loc.py --total    # the total only

Run it from anywhere inside the repository; it lists files with
`git ls-files`, so build outputs are never counted.
"""

import subprocess
import sys
from pathlib import Path

EXCLUDED_PREFIXES = ("tests/", "crates/bench/", "crates/shims/", "perfbench/")


def is_counted(path: str) -> bool:
    if not path.endswith(".rs") or path.startswith(EXCLUDED_PREFIXES):
        return False
    parts = path.split("/")
    # crates/<name>/tests/...
    return not (len(parts) > 2 and parts[0] == "crates" and parts[2] == "tests")


def non_test_lines(text: str) -> int:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip() != "#[cfg(test)]":
            continue
        # The attribute may be followed by further attributes before `mod`.
        for follow in lines[i + 1 :]:
            s = follow.strip()
            if s.startswith("#["):
                continue
            if s.startswith(("mod ", "pub mod ", "pub(crate) mod ")):
                return i
            break
    return len(lines)


def main() -> None:
    root = Path(
        subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
    )
    files = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "*.rs"],
        cwd=root,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.split()
    counts = []
    for path in sorted(set(files)):
        full = root / path
        if is_counted(path) and full.is_file():
            counts.append((non_test_lines(full.read_text(encoding="utf-8")), path))
    total = sum(n for n, _ in counts)
    print(f"{total} non-test lines in {len(counts)} files")
    if "--total" in sys.argv[1:]:
        return
    for n, path in sorted(counts, key=lambda c: (-c[0], c[1])):
        print(f"{n:6d}  {path}")


if __name__ == "__main__":
    main()
