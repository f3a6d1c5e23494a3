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
        _, allowed, _ = us.split_allowlist(entries)
        fields, result = us.check_kernel_fields(us.ROOT, allowed)
        self.assertIn("dot", fields)
        self.assertEqual(result, ([], []))


CONFIG_HEADER = """
/** Knobs. */
struct DemoConfig
{
    /** Set by a binary. */
    std::size_t threads = 1;
    std::vector<std::size_t> sizes = {10, 5, 3};
    InnerConfig inner;
    double unused = 0.5; // only tests set it
    bool operator==(const DemoConfig &other) const = default;
    std::size_t resolved() const { return threads == 0 ? 4 : threads; }
};

struct InnerConfig
{
    int depth = 2;
    int width = 3;
};
"""


class ConfigFieldTest(unittest.TestCase):
    def test_fields_are_parsed(self):
        structs = us.config_fields(CONFIG_HEADER)
        self.assertEqual(list(structs["DemoConfig"]),
                         ["threads", "sizes", "inner", "unused"])
        self.assertEqual(structs["DemoConfig"]["inner"], "InnerConfig")
        self.assertEqual(list(structs["InnerConfig"]), ["depth", "width"])

    def test_unset_fields_are_reported(self):
        structs = us.config_fields(CONFIG_HEADER)
        sources = [
            # A write through a member counts for the member's struct,
            # and as a write of the member itself.
            "DemoConfig config;\n"
            "config.threads = 4;\n"
            "config.inner.depth = 3;\n"
            "if (config.unused == 1.0) {}\n",
            # The nearest declaration above a write decides its struct:
            # this `demo` is an InnerConfig, which has no `sizes`.
            "DemoConfig demo;\n"
            "InnerConfig demo;\n"
            "demo.sizes = {};\n"
            "// demo.unused = 1.0;\n",
        ]
        self.assertEqual(us.unset_config_fields(structs, sources),
                         ["DemoConfig::sizes", "DemoConfig::unused",
                          "InnerConfig::width"])

    def test_a_write_after_its_declaration_counts(self):
        structs = us.config_fields(CONFIG_HEADER)
        sources = ["void f(DemoConfig &c) { c.sizes = {1}; c.unused = 2; "
                   "c.inner = InnerConfig{}; }",
                   "InnerConfig i; i.width = 1;"]
        self.assertEqual(us.unset_config_fields(structs, sources),
                         ["DemoConfig::threads", "InnerConfig::depth"])

    def test_checked_in_config_fields_are_written_or_allowlisted(self):
        entries, _ = us.parse_allowlist(us.ALLOWLIST.read_text())
        _, _, allowed = us.split_allowlist(entries)
        count, result = us.check_config_fields(us.ROOT, allowed)
        self.assertGreater(count, len(allowed))
        self.assertEqual(result, ([], []))


if __name__ == "__main__":
    unittest.main()
