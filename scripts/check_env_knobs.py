#!/usr/bin/env python3
"""Check that README.md documents exactly the environment knobs the code reads.

A knob is documented by a README bullet whose head names it
(``- `NVFS_JOBS` — ...``), and read by a string literal that is exactly
its name (``"NVFS_JOBS"``) in a C++ source under ``src/``, ``tools/`` or
``bench/``.  The check fails when either side names a knob the other
does not, so a knob cannot be added, or removed, without its README
entry following.

Usage: ``python3 scripts/check_env_knobs.py [REPO_ROOT]`` (default: the
directory above this script).  Exits 0 when the two sets agree and 1,
listing each difference, when they do not.  Registered as the
``script_env_knobs`` ctest.
"""

import os
import re
import sys

SOURCE_DIRS = ("src", "tools", "bench")
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
KNOB = re.compile(r"NVFS_[A-Z0-9_]+")
LITERAL = re.compile(r'"(NVFS_[A-Z0-9_]+)"')


def documented_knobs(readme_path):
    """Knobs named in the head (before the dash) of a README bullet."""
    knobs = set()
    with open(readme_path, encoding="utf-8") as readme:
        for line in readme:
            if not line.startswith("- `NVFS_"):
                continue
            head = line.split(" — ", 1)[0]
            knobs.update(KNOB.findall(head))
    return knobs


def read_knobs(root):
    """Knobs whose exact name is a string literal in a source file."""
    knobs = set()
    for top in SOURCE_DIRS:
        for directory, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                if not name.endswith(SOURCE_SUFFIXES):
                    continue
                with open(os.path.join(directory, name),
                          encoding="utf-8") as source:
                    knobs.update(LITERAL.findall(source.read()))
    return knobs


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    documented = documented_knobs(os.path.join(root, "README.md"))
    read = read_knobs(root)
    for knob in sorted(documented - read):
        print(f"README.md documents {knob}, which no source under "
              f"{', '.join(SOURCE_DIRS)} reads")
    for knob in sorted(read - documented):
        print(f"{knob} is read in the sources but has no README.md "
              f"bullet")
    if documented != read or not read:
        return 1
    print(f"{len(read)} env knobs, documented and read: "
          f"{', '.join(sorted(read))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
