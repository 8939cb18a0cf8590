#!/usr/bin/env python3
"""Linkage guard for the ISA-flagged kernel backends.

Usage:
    check_backend_linkage.py LIBSPINAL_A [--nm NM]

Each src/backend/backend_<isa>.cpp is compiled with its own -m flags
(-msse4.2, -mavx2, ...). Any symbol such an object exports with vague
linkage — an inline function, a template instantiation or an inline
variable, emitted weak (W/V) or unique (u) — may be the copy the linker
keeps for the whole program, so wide instructions could run on a CPU
the registry never vetted. The kernels, drivers and vector wrappers
therefore live in anonymous namespaces, and the only symbol a backend
object may define globally is its factory spinal::backend::<isa>_backend().

The check lists the archive with `nm -C` and fails when any
backend_*.cpp.o member defines a global, weak or unique symbol other
than that factory (or a compiler-made DW.ref.* personality slot, which
holds an address and no code). Exit codes: 0 clean, 1 violations, 2
unreadable input, 77 (CTest's SKIP_RETURN_CODE) when nm is not
installed.
"""

import argparse
import re
import shutil
import subprocess
import sys

SKIP = 77
MEMBER = re.compile(r"^(?:.*[/\\])?backend_(\w+)\.(?:cpp|cc|cxx)\.(?:o|obj):$")
SYMBOL = re.compile(r"^\s*[0-9a-fA-F]*\s+([A-Za-z?-])\s+(.+)$")


def compiler_slot(symbol: str) -> bool:
    """DW.ref.__gxx_personality_v0 and kin: the weak data word through which
    exception tables reach the C++ personality routine. Every object with
    unwind tables may carry one; it holds an address, not code."""
    return symbol.startswith("DW.ref.")


def exported(kind: str) -> bool:
    """True for nm kinds that define a symbol other objects can bind to:
    every upper-case kind except undefined (U) and debug (N) entries, plus
    GNU unique globals (u)."""
    return kind == "u" or (kind.isupper() and kind not in "UN")


def violations(listing: str):
    """Returns the (member, kind, symbol) of every disallowed definition,
    and the set of backend members seen."""
    member, isa = None, None
    seen = set()
    bad = []
    for line in listing.splitlines():
        if line.endswith(":") and not line.startswith(" "):
            m = MEMBER.match(line)
            member, isa = (line[:-1], m.group(1)) if m else (None, None)
            if member:
                seen.add(member)
            continue
        if member is None:
            continue
        m = SYMBOL.match(line)
        if not m or not exported(m.group(1)):
            continue
        if m.group(2) == f"spinal::backend::{isa}_backend()" or compiler_slot(m.group(2)):
            continue
        bad.append((member, m.group(1), m.group(2)))
    return bad, seen


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("library", help="path to libspinal.a")
    ap.add_argument("--nm", default="", help="nm executable (default: nm on PATH)")
    args = ap.parse_args()

    nm = shutil.which(args.nm or "nm")
    if nm is None:
        print(f"SKIP: {args.nm or 'nm'} not found", file=sys.stderr)
        return SKIP
    proc = subprocess.run([nm, "-C", args.library], capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: {nm} -C {args.library} failed:\n{proc.stderr}", file=sys.stderr)
        return 2

    bad, seen = violations(proc.stdout)
    if not seen:
        print(f"error: no backend_*.cpp.o member in {args.library}", file=sys.stderr)
        return 2
    for member, kind, symbol in bad:
        print(f"{member}: {kind} {symbol}")
    if bad:
        print(f"FAIL: {len(bad)} symbol(s) with external or vague linkage in the "
              "ISA-flagged backend objects; keep kernels, drivers and vector "
              "wrappers in an anonymous namespace", file=sys.stderr)
        return 1
    print(f"ok: {', '.join(sorted(seen))} export only their factories")
    return 0


if __name__ == "__main__":
    sys.exit(main())
