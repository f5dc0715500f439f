#!/usr/bin/env python3
"""List the dre:: functions that a library defines and no program links.

Usage: tools/check_reachable.py <build-dir> <allowlist>

<build-dir> must be configured so that the linker drops every function no
program reaches, keeps a helper that is inlined everywhere visible, and
emits every inline function a library source includes:

  cmake -B build-reach -S . -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O1 -fno-inline -fkeep-inline-functions -ffunction-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \\
      -DCMAKE_PROJECT_dre_INCLUDE=$PWD/perfbench/perfbench.cmake

and its programs built: the tools, bench and examples directories and the
perfbench target. Without -fno-inline a helper inlined into every caller
leaves an out-of-line copy in its archive that nothing references, and
live code would be listed. Without -fkeep-inline-functions a function
defined in a header reaches an archive only where a library source calls
it, so a header accessor no one calls would not be listed.

The check runs `nm -C --defined-only` over every src/**/lib*.a and every
program, and prints each dre:: function signature a library defines that
no program defines (overloads count separately). It skips lambdas,
`[clone ...]` parts, destructors, default, copy and move constructors and
(anonymous namespace) entries; g++ -Wunused-function reports the last
once their callers are gone.

It cannot see a template: one is instantiated only where it is used, so
a template no program uses never reaches an archive.

Each allowlist line is `<signature>  # <kind>: <reason>`, where kind is
`seam` (a test drives or observes live code through it), `reference` (a
test compares a live function against it) or `roadmap` (a ROADMAP item
names the use). Exit 1 on an unreached signature outside the allowlist,
on an allowlist line without a kind and reason, and on a stale line (its
signature is no longer defined, or a program now links it).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

PROGRAM_DIRS = ("tools", "bench", "examples")
KINDS = ("seam", "reference", "roadmap")
FUNCTION_TYPES = set("TtWw")


def defined_functions(path):
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in FUNCTION_TYPES:
            names.add(parts[2])
    return names


def qualified_name(signature):
    """The function's qualified name: no return type, no parameters."""
    depth = 0
    start = 0
    i = 0
    while i < len(signature):
        if signature.startswith("operator", i):
            # Skip the operator token so `operator<<` or `operator()`
            # does not unbalance the bracket count.
            m = re.compile(r"operator\s*(\(\)|\[\]|[^\s(]+)").match(signature, i)
            i = m.end()
            continue
        c = signature[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            break
        elif c == " " and depth == 0:
            start = i + 1
        i += 1
    return signature[start:i]


def default_copy_or_move_constructor(name, signature):
    parts = name.split("::")
    if len(parts) < 2 or parts[-1].split("<")[0] != parts[-2].split("<")[0]:
        return False
    cls = "::".join(parts[:-1])
    params = signature[signature.find(name) + len(name):]
    return params in ("()", f"({cls} const&)", f"({cls}&&)")


def counted(signature):
    if "{lambda(" in signature or "[clone " in signature:
        return False
    if "(anonymous namespace)" in signature:
        return False
    name = qualified_name(signature)
    if not name.startswith("dre::"):
        return False
    if "::~" in name:
        return False
    return not default_copy_or_move_constructor(name, signature)


def programs(build_dir):
    found = []
    for sub in PROGRAM_DIRS:
        for entry in sorted((build_dir / sub).iterdir()):
            if entry.is_file() and os.access(entry, os.X_OK):
                with open(entry, "rb") as f:
                    if f.read(4) == b"\x7fELF":
                        found.append(entry)
    perfbench = build_dir / "perfbench"
    if not perfbench.is_file():
        sys.exit(f"{perfbench} is missing: build the perfbench target")
    found.append(perfbench)
    return found


def read_allowlist(path):
    allowed = {}
    bad = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        signature, sep, reason = line.partition("  # ")
        kind = reason.split(":", 1)[0]
        if not sep or kind not in KINDS or not reason[len(kind) + 1:].strip():
            bad.append(f"{path}:{number}: needs `  # <{'|'.join(KINDS)}>: <reason>`")
            continue
        allowed[signature.strip()] = number
    return allowed, bad


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    build_dir = Path(sys.argv[1])
    allowed, problems = read_allowlist(sys.argv[2])

    libraries = sorted((build_dir / "src").rglob("lib*.a"))
    if not libraries:
        sys.exit(f"no src/**/lib*.a under {build_dir}")
    defined = set()
    for lib in libraries:
        defined |= {s for s in defined_functions(lib) if counted(s)}
    linked = set()
    binaries = programs(build_dir)
    for program in binaries:
        linked |= defined_functions(program)

    unreached = sorted(defined - linked)
    listed = [s for s in unreached if s not in allowed]
    for signature in listed:
        print(signature)
    for signature, number in sorted(allowed.items(), key=lambda kv: kv[1]):
        if signature not in defined:
            problems.append(f"{sys.argv[2]}:{number}: stale, no library defines {signature}")
        elif signature in linked:
            problems.append(f"{sys.argv[2]}:{number}: stale, a program links {signature}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(defined)} library functions, {len(binaries)} programs, "
          f"{len(unreached)} unreached, {len(unreached) - len(listed)} allowlisted, "
          f"{len(listed)} not allowlisted", file=sys.stderr)
    return 1 if listed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
