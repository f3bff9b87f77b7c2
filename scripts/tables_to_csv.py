#!/usr/bin/env python3
"""Convert nvfs bench output tables to CSV for plotting.

nvfs_bench prints fixed-width tables bounded by dashed rules.
This script extracts every such table from stdin (or the files given
as arguments) and writes one CSV per table next to the input (or to
stdout with --stdout).

Usage:
    ./build/bench/nvfs_bench fig2_byte_lifetimes \
        | scripts/tables_to_csv.py --stdout
    scripts/tables_to_csv.py bench_output.txt      # writes *.csv
"""

import csv
import io
import re
import sys


def split_columns(header, rows):
    """Split rows into cells.

    Cells are separated by runs of two or more spaces (the table
    renderer pads columns with two-space gutters; within-cell text
    only ever uses single spaces).
    """
    out = []
    for line in [header] + rows:
        out.append(re.split(r" {2,}", line.strip()))
    return out


def extract_tables(text):
    """Yield (title, list-of-rows) for every dashed-rule table."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if re.fullmatch(r"-{10,}", lines[i].strip()):
            title = lines[i - 1].strip() if i > 0 else ""
            header = lines[i + 1] if i + 1 < len(lines) else ""
            rows = []
            j = i + 2
            while j < len(lines):
                stripped = lines[j].strip()
                if re.fullmatch(r"-{10,}", stripped):
                    j += 1
                    # A rule can be a separator or the closing edge;
                    # closing if the next line is not a data row.
                    if j >= len(lines) or not lines[j].strip() or \
                            re.fullmatch(r"-{10,}", lines[j].strip()):
                        break
                    continue
                if not stripped:
                    break
                rows.append(lines[j])
                j += 1
            if header.strip() and rows:
                yield title, split_columns(header, rows)
            i = j
        else:
            i += 1


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    to_stdout = "--stdout" in sys.argv[1:]
    sources = args or ["-"]
    for source in sources:
        text = sys.stdin.read() if source == "-" else open(source).read()
        for index, (title, rows) in enumerate(extract_tables(text)):
            if to_stdout or source == "-":
                out = io.StringIO()
                csv.writer(out).writerows(rows)
                label = title or f"table {index}"
                print(f"# {label}")
                print(out.getvalue())
            else:
                path = f"{source}.table{index}.csv"
                with open(path, "w", newline="") as handle:
                    csv.writer(handle).writerows(rows)
                print(f"wrote {path}")


if __name__ == "__main__":
    main()
