"""Compare the results of two levyhull runs that may differ in last bits.

    python3 tests/ulp_diff.py RUN_A RUN_B

RUN_A and RUN_B are output directories of ``levyhull smoke`` or
``levyhull run``. Their results.csv rows must have the same experiment,
j and verdict, and their summary.json the same verdicts and counts; the
script exits 1 if not. Every other field that differs is printed with
its distance in ulps (units in the last place), numbers inside
param_json included, and does not fail the comparison. Two runs of one
config and seed at different numpy SIMD levels agree in this sense.
"""

from __future__ import annotations

import csv
import json
import struct
import sys
from pathlib import Path

LABELS = ("experiment", "j", "verdict")


def ulps(a: float, b: float) -> int:
    """Count of doubles from a to b: the distance of their bit patterns,
    ordered so that -0.0 and 0.0 coincide."""

    def ordinal(x: float) -> int:
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordinal(a) - ordinal(b))


def _fields(value: str, prefix: str) -> list:
    """(name, value) pairs of a field: the field itself as a float if it
    is a number, else the entries of its JSON object, else its text."""
    try:
        return [(prefix, float(value))]
    except ValueError:
        pass
    try:
        obj = json.loads(value)
    except ValueError:
        return [(prefix, value)]
    if not isinstance(obj, dict):
        return [(prefix, obj)]
    return [(f"{prefix}.{key}", v) for key, v in sorted(obj.items())]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(run_a: Path, run_b: Path) -> tuple[list[str], list[str]]:
    """(mismatches, differences): the label or verdict mismatches that
    fail the comparison, and one line per numeric field that differs."""
    rows = [
        list(csv.DictReader((d / "results.csv").read_text(encoding="utf-8").splitlines()))
        for d in (run_a, run_b)
    ]
    bad, diffs = [], []
    if len(rows[0]) != len(rows[1]):
        bad.append(f"results.csv has {len(rows[0])} rows against {len(rows[1])}")
    for i, (ra, rb) in enumerate(zip(*rows), start=2):
        for col in LABELS:
            if ra[col] != rb[col]:
                bad.append(f"line {i} {col}: {ra[col]!r} != {rb[col]!r}")
        for col in ra:
            if col in LABELS or ra[col] == rb[col]:
                continue
            fa, fb = _fields(ra[col], col), _fields(rb[col], col)
            if [name for name, _ in fa] != [name for name, _ in fb]:
                bad.append(f"line {i} {col}: {ra[col]!r} != {rb[col]!r}")
                continue
            for (name, x), (_, y) in zip(fa, fb):
                if x == y:
                    continue
                if _is_number(x) and _is_number(y):
                    d = ulps(float(x), float(y))
                    diffs.append(f"line {i} {ra['experiment']} {name}: {x!r} vs {y!r}, {d} ulp")
                else:
                    bad.append(f"line {i} {name}: {x!r} != {y!r}")
    summaries = [json.loads((d / "summary.json").read_text(encoding="utf-8")) for d in (run_a, run_b)]
    for key in ("verdicts", "counts"):
        if summaries[0][key] != summaries[1][key]:
            bad.append(f"summary.json {key}: {summaries[0][key]} != {summaries[1][key]}")
    return bad, diffs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tests/ulp_diff.py RUN_A RUN_B", file=sys.stderr)
        return 2
    bad, diffs = compare(Path(args[0]), Path(args[1]))
    for line in diffs:
        print(line)
    print(f"{len(diffs)} numeric fields differ")
    for line in bad:
        print("MISMATCH", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
