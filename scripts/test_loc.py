#!/usr/bin/env python3
"""Self-check of the non-test split `scripts/loc.py` and
`scripts/test_only_api.py` share.

Usage:
    python3 scripts/test_loc.py

Exits 0 when every check passes.
"""

import tempfile
import unittest
from pathlib import Path

from loc import non_test_lines, non_test_split

LIB = """\
pub mod real;
#[cfg(test)]
mod regression;
pub use real::f;

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
"""


class NonTestSplit(unittest.TestCase):
    def test_a_test_module_declaration_does_not_end_the_count(self):
        # The count runs past the declaration to the inline test module.
        self.assertEqual(non_test_lines(LIB), 5)

    def test_attributes_between_cfg_test_and_the_module_are_skipped(self):
        text = "fn a() {}\n#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n}\n"
        self.assertEqual(non_test_lines(text), 1)

    def test_a_file_without_a_test_module_counts_whole(self):
        self.assertEqual(non_test_lines("fn a() {}\nfn b() {}\n"), 2)

    def test_the_declared_file_and_what_it_declares_are_test_code(self):
        files = {
            "crates/a/src/lib.rs": LIB,
            "crates/a/src/real.rs": "pub fn f() {}\n#[cfg(test)]\nmod helpers;\n",
            "crates/a/src/real/helpers.rs": "pub fn h() {}\n",
            "crates/a/src/regression.rs": "mod cases;\npub fn g() {}\n",
            "crates/a/src/regression/cases.rs": "pub fn c() {}\n",
            "tests/outside.rs": "fn x() {}\n",
        }
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for path, text in files.items():
                (root / path).parent.mkdir(parents=True, exist_ok=True)
                (root / path).write_text(text, encoding="utf-8")
            split = non_test_split(root, files)
        self.assertEqual(
            split, {"crates/a/src/lib.rs": 5, "crates/a/src/real.rs": 3}
        )


if __name__ == "__main__":
    unittest.main()
