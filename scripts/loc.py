#!/usr/bin/env python3
"""Count non-test Rust lines in the workspace.

The rule: every tracked `.rs` file outside `tests/`, `crates/*/tests/`,
`crates/bench/`, `crates/shims/` and `perfbench/`, counted up to its first
`#[cfg(test)]` attribute that opens an inline `mod name {` (the unit-test
module). Lines after that point are test code and are not counted. A
`#[cfg(test)] mod name;` declaration does not end the count of the file
it sits in; the file it declares (`name.rs` or `name/mod.rs`) is test
code, and so is every module that file declares in turn.

Usage:
    python3 scripts/loc.py            # total, then one row per file
    python3 scripts/loc.py --total    # the total only

Run it from anywhere inside the repository; it lists files with
`git ls-files`, so build outputs are never counted. `scripts/test_loc.py`
checks the split.
"""

import re
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


MOD_ITEM = re.compile(r"^(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*([;{])")


def test_gated_mods(text: str):
    """Yield `(line, name, opener)` for each `#[cfg(test)]`-gated `mod`
    item, where `opener` is `{` for an inline module and `;` for a
    declaration."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip() != "#[cfg(test)]":
            continue
        # The attribute may be followed by further attributes before `mod`.
        for follow in lines[i + 1 :]:
            s = follow.strip()
            if s.startswith("#["):
                continue
            m = MOD_ITEM.match(s)
            if m:
                yield i, m.group(1), m.group(2)
            break


def non_test_lines(text: str) -> int:
    """Lines before the first `#[cfg(test)]`-gated inline module."""
    for i, _, opener in test_gated_mods(text):
        if opener == "{":
            return i
    return len(text.splitlines())


def declared_files(path: str, text: str, test_only: bool) -> list:
    """The files `path` declares as modules (`mod name;`), each as its
    `name.rs` and `name/mod.rs` candidates; only the `#[cfg(test)]`-gated
    ones when `test_only`."""
    if test_only:
        names = [n for _, n, opener in test_gated_mods(text) if opener == ";"]
    else:
        names = []
        for line in text.splitlines():
            m = MOD_ITEM.match(line.strip())
            if m and m.group(2) == ";":
                names.append(m.group(1))
    p = Path(path)
    base = p.parent if p.stem in ("lib", "main", "mod") else p.parent / p.stem
    return [[str(base / f"{n}.rs"), str(base / n / "mod.rs")] for n in names]


def test_module_files(texts: dict) -> set:
    """The files of `texts` (path -> source) that are test code because a
    `#[cfg(test)] mod name;` declares them, or a test file declares them."""
    tests = set()
    frontier = [(p, t, True) for p, t in texts.items()]
    while frontier:
        path, text, test_only = frontier.pop()
        for candidates in declared_files(path, text, test_only):
            for c in candidates:
                if c in texts and c not in tests:
                    tests.add(c)
                    frontier.append((c, texts[c], False))
    return tests


def non_test_split(root: Path, files) -> dict:
    """Each counted file's non-test line count, keyed by path; a file that
    is test code as a whole is left out."""
    texts = {}
    for path in sorted(set(files)):
        full = root / path
        if path.endswith(".rs") and full.is_file():
            texts[path] = full.read_text(encoding="utf-8")
    tests = test_module_files(texts)
    return {
        path: non_test_lines(text)
        for path, text in texts.items()
        if is_counted(path) and path not in tests
    }


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
    counts = [(n, path) for path, n in non_test_split(root, files).items()]
    total = sum(n for n, _ in counts)
    print(f"{total} non-test lines in {len(counts)} files")
    if "--total" in sys.argv[1:]:
        return
    for n, path in sorted(counts, key=lambda c: (-c[0], c[1])):
        print(f"{n:6d}  {path}")


if __name__ == "__main__":
    main()
