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
so code that lives only in headers is not seen.
"""

import argparse
import os
import pathlib
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

    root_build, harness_build = build(pathlib.Path(args.work).resolve())

    objects = src_objects(root_build)
    bins = binaries(root_build, harness_build)
    defined = strong_defined(objects)
    linked = kept(bins)
    allowlist, errors = parse_allowlist(ALLOWLIST.read_text())
    unlisted, stale = compare(defined, linked, allowlist)

    print(f"{len(defined)} strong symbols in {len(objects)} src/ objects; "
          f"{len(bins)} binaries; {len(allowlist)} allowlisted")
    for name in unlisted:
        rel = defined[name].relative_to(root_build)
        print(f"unlinked: {name}  [{rel}]")
    for name in stale:
        print(f"stale allowlist line (symbol is linked or gone): {name}")
    for error in errors:
        print(error)
    if unlisted or stale or errors:
        print(f"FAIL: {len(unlisted)} unlinked, {len(stale)} stale, "
              f"{len(errors)} malformed")
        return 1
    print("OK: every strong src/ symbol is linked or allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
