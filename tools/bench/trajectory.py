#!/usr/bin/env python3
"""Gate a mecsched.bench.v2 telemetry file against its checked-in baseline.

Usage:
    trajectory.py RESULT_JSON [BASELINE_JSON]
    trajectory.py --self-test

RESULT_JSON is the BENCH_<name>.json a bench binary emits (schema
"mecsched.bench.v2"; see bench/bench_common.h). BASELINE_JSON defaults to
bench/baselines/<bench>.json, resolved from the "bench" field of the
result. The baseline holds a list of gate specs:

    {
      "bench": "lp_kernels",
      "gates": [
        {"metric": "values.lu_pivots_per_second",
         "type": "min_fraction_of", "baseline": 60000.0, "fraction": 0.5},
        {"metric": "values.simplex_lp_hta_seconds", "type": "max",
         "limit": 0.008},
        {"metric": "flags.cell_objectives_agree",
         "type": "equals", "expect": true}
      ]
    }

Gate types:
    min              value >= limit
    max              value <= limit
    equals           value == expect (numbers, bools or strings)
    min_fraction_of  value >= baseline * fraction (regression floor: the
                     baseline is the recorded level, the fraction is the
                     tolerated regression — 0.8 tolerates a 20% drop)

"metric" is a dotted path into the result document; a key may itself
contain dots (registry counters such as counters.lp.simplex.pivots). Exits 1 when the
schema is wrong, a metric is missing, or any gate fails — one ok/FAIL
line per gate either way, so CI logs show the whole trajectory.
"""

import json
import pathlib
import sys

SCHEMA = "mecsched.bench.v2"
REQUIRED_KEYS = ("schema", "bench", "wall_seconds", "values", "flags",
                 "counters")


def lookup(doc, dotted):
    """Resolve a dotted path; returns (found, value). At each level the
    longest run of parts that names an existing key wins, so registry
    counters whose own names contain dots resolve
    (counters.lp.simplex.pivots is counters["lp.simplex.pivots"])."""
    node = doc
    parts = dotted.split(".")
    while parts:
        if not isinstance(node, dict):
            return False, None
        for n in range(len(parts), 0, -1):
            key = ".".join(parts[:n])
            if key in node:
                node = node[key]
                parts = parts[n:]
                break
        else:
            return False, None
    return True, node


def validate_schema(result):
    """Returns a list of problems (empty = valid)."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    if result.get("schema") != SCHEMA:
        problems.append(
            f"schema is {result.get('schema')!r}, want {SCHEMA!r}")
    for key in REQUIRED_KEYS:
        if key not in result:
            problems.append(f"missing required key {key!r}")
    for key in ("values", "flags", "counters"):
        if key in result and not isinstance(result[key], dict):
            problems.append(f"{key!r} is not an object")
    return problems


def check_gate(result, gate):
    """Returns (ok, description) for one gate spec."""
    metric = gate.get("metric", "<unspecified>")
    found, value = lookup(result, metric)
    if not found:
        return False, f"{metric} missing from result"
    kind = gate.get("type")
    if kind == "min":
        limit = float(gate["limit"])
        return (isinstance(value, (int, float)) and value >= limit,
                f"{metric} = {value} (min {limit})")
    if kind == "max":
        limit = float(gate["limit"])
        return (isinstance(value, (int, float)) and value <= limit,
                f"{metric} = {value} (max {limit})")
    if kind == "equals":
        expect = gate["expect"]
        return value == expect, f"{metric} = {value!r} (expect {expect!r})"
    if kind == "min_fraction_of":
        floor = float(gate["baseline"]) * float(gate["fraction"])
        return (isinstance(value, (int, float)) and value >= floor,
                f"{metric} = {value} (floor {floor:g} = "
                f"baseline {gate['baseline']} * {gate['fraction']})")
    return False, f"{metric}: unknown gate type {kind!r}"


def run_gates(result, baseline):
    ok = True
    problems = validate_schema(result)
    for p in problems:
        print(f"FAIL: schema: {p}")
        ok = False
    want_bench = baseline.get("bench")
    if want_bench and result.get("bench") != want_bench:
        print(f"FAIL: baseline is for {want_bench!r}, "
              f"result is {result.get('bench')!r}")
        ok = False
    gates = baseline.get("gates", [])
    if not gates:
        print("FAIL: baseline has no gates")
        ok = False
    for gate in gates:
        gate_ok, description = check_gate(result, gate)
        print(f"{'ok' if gate_ok else 'FAIL'}: {description}")
        ok = ok and gate_ok
    return ok


def self_test():
    doc = {
        "schema": SCHEMA,
        "bench": "demo",
        "wall_seconds": 1.5,
        "values": {"speedup": 10.0, "overhead": 0.01},
        "flags": {"identical": True},
        "counters": {"solves": 4, "lp.simplex.pivots": 45787},
    }
    cases = [
        ({"metric": "values.speedup", "type": "min", "limit": 5.0}, True),
        ({"metric": "values.speedup", "type": "min", "limit": 11.0}, False),
        ({"metric": "values.overhead", "type": "max", "limit": 0.02}, True),
        ({"metric": "values.overhead", "type": "max", "limit": 0.001}, False),
        ({"metric": "flags.identical", "type": "equals", "expect": True},
         True),
        ({"metric": "flags.identical", "type": "equals", "expect": False},
         False),
        ({"metric": "values.speedup", "type": "min_fraction_of",
          "baseline": 10.0, "fraction": 0.8}, True),
        ({"metric": "values.speedup", "type": "min_fraction_of",
          "baseline": 20.0, "fraction": 0.8}, False),
        ({"metric": "values.absent", "type": "min", "limit": 0.0}, False),
        ({"metric": "counters.lp.simplex.pivots", "type": "max",
          "limit": 60000}, True),
        ({"metric": "counters.lp.simplex.pivots", "type": "max",
          "limit": 40000}, False),
        ({"metric": "counters.lp.simplex", "type": "min", "limit": 0},
         False),
        ({"metric": "values.speedup", "type": "bogus"}, False),
    ]
    ok = True
    for gate, expect in cases:
        got, description = check_gate(doc, gate)
        if got != expect:
            print(f"self-test FAIL: {gate} -> {got}, want {expect} "
                  f"({description})")
            ok = False
    if validate_schema(doc):
        print("self-test FAIL: valid doc rejected")
        ok = False
    bad = dict(doc, schema="nope")
    del bad["counters"]
    problems = validate_schema(bad)
    if len(problems) != 2:
        print(f"self-test FAIL: bad doc problems = {problems}")
        ok = False
    if not run_gates(doc, {"bench": "demo", "gates": [cases[0][0]]}):
        print("self-test FAIL: passing baseline rejected")
        ok = False
    if run_gates(doc, {"bench": "other", "gates": [cases[0][0]]}):
        print("self-test FAIL: bench-name mismatch accepted")
        ok = False
    print("self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    result = json.loads(pathlib.Path(argv[1]).read_text())
    if len(argv) == 3:
        baseline_path = pathlib.Path(argv[2])
    else:
        bench = result.get("bench", "") if isinstance(result, dict) else ""
        baseline_path = (pathlib.Path(__file__).resolve().parents[2]
                         / "bench" / "baselines" / f"{bench}.json")
        if not baseline_path.is_file():
            print(f"FAIL: no baseline at {baseline_path} "
                  f"(bench {bench!r})")
            return 1
    baseline = json.loads(baseline_path.read_text())
    return 0 if run_gates(result, baseline) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
