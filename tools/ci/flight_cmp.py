#!/usr/bin/env python3
"""Compare two flight records (--flight-out JSONL) but for their clock fields.

    python3 tools/ci/flight_cmp.py a.jsonl b.jsonl

`seconds` and `deadline_residual_ms` read the wall clock, so they differ
between any two runs; every other field of every record, and the record
order, must not depend on the worker count. Exits 1, naming the first
record that differs, unless the two match in order; an empty record also
fails, since it would make the comparison vacuous.
"""
import json
import sys

CLOCK_FIELDS = ("seconds", "deadline_residual_ms")


def load(path):
    records = []
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            for field in CLOCK_FIELDS:
                record.pop(field)
            records.append(record)
    if not records:
        sys.exit(f"{path}: no flight records")
    return records


def main(a_path, b_path):
    a, b = load(a_path), load(b_path)
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            sys.exit(f"record {i} differs:\n  {a_path}: {ra}\n  {b_path}: {rb}")
    if len(a) != len(b):
        sys.exit(f"{a_path} has {len(a)} records, {b_path} has {len(b)}")
    print(f"{len(a)} flight records match but for "
          f"{' and '.join(CLOCK_FIELDS)}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
