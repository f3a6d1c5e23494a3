#!/usr/bin/env python3
"""Lists the strong src/ symbols that no shipped binary links.

    python3 tools/unlinked_symbols.py [--work build-symbols]

Builds the repository twice in Debug (-O0, so nothing is inlined away)
with -ffunction-sections -fdata-sections and -Wl,--gc-sections: once
from the root, without tests, for every bench, tool and example
binary; once from perfbench/, for its harness programs pb_offline and
pb_serve. A function that no binary reaches is then dropped from every
one of them by the linker.

The check compares the strong text symbols (nm type T) that the src/
objects define with the symbols the binaries keep. A strong src/
symbol that no binary keeps is unlinked: production cannot call it.
It must be deleted, moved into tests/, or named with a reason in the
allowlist (tools/unlinked_symbols_allowlist.txt, one demangled symbol
per line, then "  # " and the reason). The exit status is 1 if any
unlinked symbol is not on the allowlist, or if an allowlist line has no
reason or names a symbol that is no longer unlinked.

Inline and template functions are weak (nm type W) and not compared,
so code that lives only in headers is not seen. Nor are the entries of
simd::KernelTable: every tier's table takes each kernel's address, so
a kernel is linked whether or not anything calls it. A second check,
on the sources, covers them: every function-pointer field of
KernelTable (src/simd/simd.h) must be read by some source outside
src/simd and tests/, either directly (`.field(` or `->field(`) or by
calling a simd.h wrapper that reads it (`simd::wrapper(`). The
allowlist names a field that may stay unread as "KernelTable::field",
with its reason, and goes stale the same way.

A third check, also on the sources, finds dead knobs: every field of a
`struct ...Config` under src/ must be written by some source outside
tests/, as `x.field = ...` or through a write to one of its sub-fields
(`x.field.sub = ...`). A write counts for the struct when `x` is
declared with that struct's type in the same file, or is itself a
field of that type. The allowlist names a field that only tests set as
"SomeConfig::field", with its reason, and goes stale the same way.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "unlinked_symbols_allowlist.txt"
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
BINARY_DIRS = ("bench", "tools", "examples")
HARNESS = ("pb_offline", "pb_serve")
FIELD_PREFIX = "KernelTable::"
# Where a kernel's readers live; src/simd itself is left out.
READER_DIRS = ("src", "bench", "tools", "examples", "perfbench")
CONFIG_FIELD = re.compile(r"^\w+Config::\w+$")


def run(cmd):
    subprocess.run(cmd, check=True)


def build(work):
    jobs = str(os.cpu_count() or 1)
    root_build = work / "root"
    run(["cmake", "-S", str(ROOT), "-B", str(root_build), *FLAGS,
         "-DDTRANK_BUILD_TESTS=OFF"])
    run(["cmake", "--build", str(root_build), "-j", jobs])
    harness_build = work / "perfbench"
    run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(harness_build),
         *FLAGS])
    run(["cmake", "--build", str(harness_build), "-j", jobs,
         "--target", *HARNESS])
    return root_build, harness_build


def nm(path):
    """Yields (type, demangled name) for every defined symbol of path."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3:
            yield parts[1], parts[2]
        elif len(parts) == 2:  # absolute symbols print without an address
            yield parts[0], parts[1]


def src_objects(root_build):
    return sorted((root_build / "src").rglob("*.o"))


def binaries(root_build, harness_build):
    found = []
    for d in BINARY_DIRS:
        for path in sorted((root_build / d).iterdir()):
            if path.is_file() and os.access(path, os.X_OK):
                found.append(path)
    found += [harness_build / name for name in HARNESS]
    return found


def strong_defined(objects):
    """Maps each strong text symbol of the objects to its object."""
    symbols = {}
    for obj in objects:
        for kind, name in nm(obj):
            if kind == "T":
                symbols.setdefault(name, obj)
    return symbols


def kept(paths):
    names = set()
    for path in paths:
        names.update(name for _, name in nm(path))
    return names


def parse_allowlist(text):
    """Returns ({symbol: reason}, [errors]) for the allowlist text."""
    entries, errors = {}, []
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        symbol, sep, reason = stripped.partition("  # ")
        if not sep or not reason.strip():
            errors.append(f"allowlist line {number}: no reason: {stripped}")
            continue
        entries[symbol.strip()] = reason.strip()
    return entries, errors


def strip_comments(code):
    code = re.sub(r"/\*.*?\*/", " ", code, flags=re.S)
    return re.sub(r"//[^\n]*", "", code)


def kernel_fields(header):
    """The function-pointer fields of struct KernelTable, in order."""
    body = re.search(r"struct KernelTable\s*\{(.*?)\n\};", header, re.S)
    return re.findall(r"\(\*(\w+)\)\s*\(", strip_comments(body.group(1)))


def kernel_wrappers(header):
    """Maps each function the header defines to the fields it reads
    through kernels()."""
    wrappers = {}
    code = strip_comments(header)
    for m in re.finditer(r"^(\w+)\([^;{]*?\)\s*\{(.*?)^\}", code,
                         re.S | re.M):
        reads = re.findall(r"kernels\(\)\.(\w+)\s*\(", m.group(2))
        if reads:
            wrappers.setdefault(m.group(1), set()).update(reads)
    return wrappers


def read_fields(fields, wrappers, sources):
    """The fields that some source text reads, directly or through a
    wrapper."""
    read = set()
    for text in sources:
        code = strip_comments(text)
        for field in fields:
            if re.search(rf"(?:\.|->)\s*{field}\s*\(", code):
                read.add(field)
        for wrapper, reads in wrappers.items():
            if re.search(rf"\bsimd::{wrapper}\s*\(", code):
                read.update(reads)
    return read


def reader_sources(root):
    """The text of every C++ source outside src/simd and tests/."""
    simd_dir = root / "src" / "simd"
    for d in READER_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix in (".cpp", ".h") and simd_dir not in path.parents:
                yield path.read_text()


def compare_fields(fields, read, allowlist):
    """Returns (unread fields not allowlisted, stale allowlisted fields)."""
    unread = set(fields) - read
    return (sorted(unread - allowlist.keys()),
            sorted(allowlist.keys() - unread))


def check_kernel_fields(root, allowlist):
    """compare_fields() for the KernelTable of the tree at root."""
    header = (root / "src" / "simd" / "simd.h").read_text()
    fields = kernel_fields(header)
    read = read_fields(fields, kernel_wrappers(header), reader_sources(root))
    return fields, compare_fields(fields, read, allowlist)


def config_fields(text):
    """Maps each `struct ...Config` of the text to its fields, as
    {field: declared type}. Member functions are left out."""
    structs = {}
    code = strip_comments(text)
    for m in re.finditer(r"\bstruct\s+(\w+Config)\s*\{", code):
        depth, i = 1, m.end()
        statements, stmt_start, opened = [], m.end(), None
        while depth:
            c = code[i]
            if c in "{(":
                if depth == 1 and c == "{":
                    opened = i
                depth += 1
            elif c in "})":
                depth -= 1
                # A member function's body ends its statement.
                if depth == 1 and c == "}" and re.search(
                        r"\)\s*(?:const|noexcept|override|\s)*$",
                        code[stmt_start:opened]):
                    stmt_start = i + 1
            elif c == ";" and depth == 1:
                statements.append(code[stmt_start:i])
                stmt_start = i + 1
            i += 1
        fields = {}
        for stmt in statements:
            decl = re.split(r"(?<![=!<>])=(?!=)|\{", stmt, maxsplit=1)[0]
            decl = decl.strip()
            if not decl or "(" in decl or decl.startswith(
                    ("using ", "static ", "friend ", "template")):
                continue
            name = re.search(r"(\w+)\s*$", decl)
            if name:
                fields[name.group(1)] = decl[:name.start()].strip()
        structs[m.group(1)] = fields
    return structs


def declarations(code, struct_names):
    """(position, identifier, struct) for every identifier the code
    declares with a config struct's type: variables, parameters and
    members."""
    if not struct_names:
        return []
    pattern = (r"\b(" + "|".join(map(re.escape, sorted(struct_names))) +
               r")\b\s*(?:const\s*)?[&*]?\s*(\w+)")
    return [(m.start(), m.group(2), m.group(1))
            for m in re.finditer(pattern, code)]


def field_writes(code):
    """(position, owner, field, owner is the chain's head) for every
    step of every write `a.b.c = ...` in the code: (a, b) and (b, c)
    for that one."""
    writes = []
    for m in re.finditer(r"\b(\w+)((?:\s*(?:\.|->)\s*\w+)+)\s*=(?!=)",
                         code):
        chain = [m.group(1)] + re.findall(r"\w+", m.group(2))
        for i in range(1, len(chain)):
            writes.append((m.start(), chain[i - 1], chain[i], i == 1))
    return writes


def unset_config_fields(structs, sources):
    """The "Struct::field" names no source writes, given the structs
    (config_fields() of the src/ headers) and the source texts. A write
    `x.f = ...` counts for the struct of x's nearest declaration above
    it in the same text (its scope, to a first approximation); a write
    through a member, `y.x.f = ...`, for the struct x is declared with
    as a config field."""
    names = set(structs)
    members = {}
    for fields in structs.values():
        for field, decl in fields.items():
            for owner in names:
                if re.search(rf"\b{owner}\b", decl):
                    members.setdefault(field, set()).add(owner)
    written = set()
    for text in sources:
        code = strip_comments(text)
        decls = declarations(code, names)
        for pos, owner, field, head in field_writes(code):
            owners = members.get(owner, set())
            if head:
                local = [struct for at, ident, struct in decls
                         if ident == owner and at < pos]
                owners = {local[-1]} if local else owners
            for struct in owners:
                if field in structs[struct]:
                    written.add(f"{struct}::{field}")
    every = {f"{struct}::{field}" for struct, fields in structs.items()
             for field in fields}
    return sorted(every - written)


def writer_sources(root):
    """The text of every C++ source outside tests/."""
    for d in READER_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix in (".cpp", ".h"):
                yield path.read_text()


def check_config_fields(root, allowlist):
    """(unset fields not allowlisted, stale allowlisted fields) for the
    config structs of the tree at root."""
    structs = {}
    for path in sorted((root / "src").rglob("*.h")):
        structs.update(config_fields(path.read_text()))
    unset = set(unset_config_fields(structs, writer_sources(root)))
    count = sum(len(fields) for fields in structs.values())
    return count, (sorted(unset - allowlist.keys()),
                   sorted(allowlist.keys() - unset))


def split_allowlist(entries):
    """Splits allowlist entries into (symbols, KernelTable fields,
    config fields)."""
    symbols, fields, knobs = {}, {}, {}
    for name, reason in entries.items():
        if name.startswith(FIELD_PREFIX):
            fields[name[len(FIELD_PREFIX):]] = reason
        elif CONFIG_FIELD.match(name):
            knobs[name] = reason
        else:
            symbols[name] = reason
    return symbols, fields, knobs


def compare(defined, linked, allowlist):
    """Returns (unlisted unlinked symbols, stale allowlist symbols)."""
    unlinked = {name for name in defined if name not in linked}
    return (sorted(unlinked - allowlist.keys()),
            sorted(allowlist.keys() - unlinked))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--work", default=str(ROOT / "build-symbols"),
                        help="build directory (default: build-symbols)")
    args = parser.parse_args()

    entries, errors = parse_allowlist(ALLOWLIST.read_text())
    allowlist, allowed_fields, allowed_knobs = split_allowlist(entries)
    fields, (unread, stale_fields) = check_kernel_fields(ROOT,
                                                         allowed_fields)
    knobs, (unset, stale_knobs) = check_config_fields(ROOT, allowed_knobs)

    root_build, harness_build = build(pathlib.Path(args.work).resolve())

    objects = src_objects(root_build)
    bins = binaries(root_build, harness_build)
    defined = strong_defined(objects)
    linked = kept(bins)
    unlisted, stale = compare(defined, linked, allowlist)

    print(f"{len(defined)} strong symbols in {len(objects)} src/ objects; "
          f"{len(bins)} binaries; {len(allowlist)} allowlisted")
    print(f"{len(fields)} KernelTable fields; "
          f"{len(allowed_fields)} allowlisted")
    print(f"{knobs} config fields; {len(allowed_knobs)} allowlisted")
    for name in unlisted:
        rel = defined[name].relative_to(root_build)
        print(f"unlinked: {name}  [{rel}]")
    for name in unread:
        print(f"unread: {FIELD_PREFIX}{name} (no source outside src/simd "
              "and tests/ calls it)")
    for name in unset:
        print(f"unset: {name} (no source outside tests/ writes it)")
    for name in stale:
        print(f"stale allowlist line (symbol is linked or gone): {name}")
    for name in stale_fields:
        print(f"stale allowlist line (field is read or gone): "
              f"{FIELD_PREFIX}{name}")
    for name in stale_knobs:
        print(f"stale allowlist line (field is written or gone): {name}")
    for error in errors:
        print(error)
    if unlisted or unread or unset or stale or stale_fields or \
            stale_knobs or errors:
        print(f"FAIL: {len(unlisted)} unlinked, {len(unread)} unread, "
              f"{len(unset)} unset, "
              f"{len(stale) + len(stale_fields) + len(stale_knobs)} "
              f"stale, {len(errors)} malformed")
        return 1
    print("OK: every strong src/ symbol is linked or allowlisted, every "
          "KernelTable field is read or allowlisted, and every config "
          "field is written or allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
