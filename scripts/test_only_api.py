#!/usr/bin/env python3
"""List public functions that only tests call.

The rule: a `pub fn` or `pub(crate) fn` in non-test code is listed when its
name appears nowhere else in non-test code. Non-test code is what
`scripts/loc.py` counts (tracked `.rs` files outside `tests/`,
`crates/*/tests/`, `crates/bench/`, `crates/shims/` and `perfbench/`, up to
the first `#[cfg(test)]` inline `mod`, less the files a `#[cfg(test)]
mod name;` declares). A name also counts as used when it appears
anywhere in `crates/bench/` or `perfbench/`, or in the code of either
README (its fenced blocks and backtick spans). Comments are stripped
before counting (`//` in Rust, doc comments included, and `#` lines in a
README's shell blocks), so a function that is only mentioned in prose is
still listed.

Usage:
    python3 scripts/test_only_api.py

Prints one `path:line  name` row per listed function and exits 1 when it
lists anything, 0 when it lists nothing. Run it from anywhere inside the
repository; it lists files with `git ls-files`, so build outputs are never
read. Deleting a listed function can strand its own helpers, so run it
again after each deletion.
"""

import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from loc import non_test_split

ALWAYS_USERS = ("crates/bench/", "perfbench/")
READMES = ("README.md", "perfbench/README.md")
PUB_FN = re.compile(r"^\s*pub(?:\(crate\))?\s+(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)")
# A string or char literal is kept whole, so a `//` inside one is not a
# comment; a `//` outside one starts a comment that runs to the line end.
LITERAL_OR_COMMENT = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'|//.*')
MARKDOWN_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)
WORD = re.compile(r"\w+")


def strip_comments(line: str) -> str:
    return LITERAL_OR_COMMENT.sub(
        lambda m: "" if m.group(0).startswith("//") else m.group(0), line
    )


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
        ["git", "ls-files", "--cached", "--others", "--exclude-standard"],
        cwd=root,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.split()

    split = non_test_split(root, files)
    uses = Counter()
    definitions = []
    for path in sorted(set(files)):
        full = root / path
        if not full.is_file():
            continue
        if path in READMES:
            for code in MARKDOWN_CODE.findall(full.read_text(encoding="utf-8")):
                for line in code.splitlines():
                    if not line.lstrip().startswith("#"):
                        uses.update(WORD.findall(strip_comments(line)))
            continue
        if not path.endswith(".rs"):
            continue
        if path.startswith(ALWAYS_USERS):
            lines = full.read_text(encoding="utf-8").splitlines()
        elif path in split:
            lines = full.read_text(encoding="utf-8").splitlines()[: split[path]]
        else:
            continue
        for number, line in enumerate(lines, start=1):
            code = strip_comments(line)
            uses.update(WORD.findall(code))
            m = PUB_FN.match(code)
            if m and path in split:
                definitions.append((path, number, m.group(1)))

    # Each definition names its function once; any further occurrence is a use.
    defined = Counter(name for _, _, name in definitions)
    listed = [d for d in definitions if uses[d[2]] <= defined[d[2]]]
    for path, number, name in listed:
        print(f"{path}:{number}  {name}")
    print(f"{len(listed)} test-only public functions")
    sys.exit(1 if listed else 0)


if __name__ == "__main__":
    main()
