#!/usr/bin/env python3
"""Counts the project's lines of code.

Usage:
    count_loc.py [ROOT]

A line counts when it still holds a non-blank character after every
`//` and `/* */` comment is removed. String and character literals are
skipped while scanning, so a `//` inside "..." is code. The count
covers the .h and .cpp files under ROOT/src and ROOT/examples (ROOT
defaults to the repository this script sits in). It prints the total
first, then one line per directory.
"""

import argparse
import os
import sys

DIRS = ("src", "examples")
SUFFIXES = (".h", ".cpp")


def code_lines(text: str) -> int:
    """Lines of @p text that keep a non-blank character outside comments."""
    count = 0
    in_block = False
    for line in text.splitlines():
        code = False
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    break
                in_block = False
                i = end + 2
                continue
            ch = line[i]
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                code = True
                i += 1
                while i < n and line[i] != ch:
                    i += 2 if line[i] == "\\" else 1
                i += 1
                continue
            if not ch.isspace():
                code = True
            i += 1
        count += code
    return count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?",
                    default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()

    per_dir = {}
    for top in DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(args.root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(SUFFIXES):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    rel = os.path.relpath(dirpath, args.root)
                    per_dir[rel] = per_dir.get(rel, 0) + code_lines(f.read())
    if not per_dir:
        print(f"count_loc: no sources under {args.root}", file=sys.stderr)
        return 2
    print(f"loc {sum(per_dir.values())} (non-blank, non-comment .h/.cpp in src/ + examples/)")
    for rel in sorted(per_dir):
        print(f"  {rel} {per_dir[rel]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
