#!/usr/bin/env python3
"""Unit tests for the allowlist and diff logic of unlinked_symbols.py.

    python3 tools/test_unlinked_symbols.py
"""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import unlinked_symbols as us  # noqa: E402


class AllowlistTest(unittest.TestCase):
    def test_entries_need_a_reason(self):
        entries, errors = us.parse_allowlist(
            "# comment\n\n"
            "ns::hook(int)  # tests call it\n"
            "ns::bare()\n"
            "ns::empty()  # \n")
        self.assertEqual(entries, {"ns::hook(int)": "tests call it"})
        self.assertEqual(len(errors), 2)

    def test_checked_in_allowlist_is_well_formed(self):
        entries, errors = us.parse_allowlist(us.ALLOWLIST.read_text())
        self.assertEqual(errors, [])
        self.assertTrue(entries)


class CompareTest(unittest.TestCase):
    def test_unlisted_and_stale_symbols_are_reported(self):
        defined = {"a()": "a.o", "b()": "b.o", "c()": "c.o"}
        linked = {"a()", "main"}
        allow = {"b()": "hook", "gone()": "deleted since"}
        unlisted, stale = us.compare(defined, linked, allow)
        self.assertEqual(unlisted, ["c()"])
        self.assertEqual(stale, ["gone()"])

    def test_clean_when_every_symbol_is_linked_or_listed(self):
        unlisted, stale = us.compare({"a()": "a.o", "b()": "b.o"},
                                     {"a()"}, {"b()": "hook"})
        self.assertEqual((unlisted, stale), ([], []))


if __name__ == "__main__":
    unittest.main()
