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


HEADER = """
struct KernelTable
{
    const char *name;
    /** Canonical dot. */
    double (*dot)(const double *a, const double *b, std::size_t n);
    void (*scale)(double *v, double factor, std::size_t n);
    // void (*commented)(double *v);
    void (*exp)(std::size_t n, double *a);
    void (*unused)(double *v, std::size_t n);
};

inline void
scale(double *v, double factor, std::size_t n)
{
    kernels().scale(v, factor, n);
}
"""


class KernelFieldTest(unittest.TestCase):
    def test_fields_and_wrappers_are_parsed(self):
        self.assertEqual(us.kernel_fields(HEADER),
                         ["dot", "scale", "exp", "unused"])
        self.assertEqual(us.kernel_wrappers(HEADER), {"scale": {"scale"}})

    def test_unread_and_stale_fields_are_reported(self):
        fields = us.kernel_fields(HEADER)
        sources = ["x = kt.dot(a, b, n);",
                   "simd::scale(v, 2.0, n); // kt.unused(v, n)"]
        read = us.read_fields(fields, us.kernel_wrappers(HEADER), sources)
        self.assertEqual(read, {"dot", "scale"})
        self.assertEqual(us.compare_fields(fields, read, {"exp": "tests"}),
                         (["unused"], []))
        self.assertEqual(
            us.compare_fields(fields, read,
                              {"exp": "tests", "unused": "x", "dot": "y"}),
            ([], ["dot"]))

    def test_checked_in_kernel_table_is_read_or_allowlisted(self):
        entries, _ = us.parse_allowlist(us.ALLOWLIST.read_text())
        _, allowed = us.split_allowlist(entries)
        fields, result = us.check_kernel_fields(us.ROOT, allowed)
        self.assertIn("dot", fields)
        self.assertEqual(result, ([], []))


if __name__ == "__main__":
    unittest.main()
