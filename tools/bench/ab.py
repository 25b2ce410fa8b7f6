#!/usr/bin/env python3
"""A/B-compare two revisions on one perfbench workload.

Usage:
    ab.py --base REV --head REV --workload W --pairs N
          [--seconds S] [--seed N] [--trace 0|1] [--expect-moved NAME ...]
          [--json-out PATH]
    ab.py --self-test

Run from the repository root. Each side is a git revision, exported with
`git archive` (no network, no change to the repository's refs or
worktrees) into .bench_build/ab/<sha>/, or the path of an existing
checkout, which is used as it is (`--head .` measures the working tree).
Each side's perfbench/run.py builds its own runner there on first use.

The two sides then run `perfbench/run.py --workload W --seconds S --trace T`
in alternation, N times each, the side that runs first alternating from
pair to pair so that a drift in host speed falls on both. For every metric
of BENCHMARK.json's end_to_end (--trace 0) or per_layer (--trace 1) list
it prints both medians, both sides' quartiles and median absolute
deviations (MAD), head's change in the median, head's wins k/N (a pair is
a win when head's value is better in the metric's direction; a tie is
not) and the exact two-sided sign-test p of those wins against the losses
(ties dropped). A metric measured over at least 10 pairs, whose wins are
at least 9 in 10 and whose median moved by more than the base's
interquartile range is marked `clear`; fewer pairs are never clear. Every run's value follows, in pair order.

With --json-out the same summary is also written to PATH as JSON (schema
"mecsched.ab.v1"): both sides' revisions and commit shas, the host's
processor count, and per metric each side's runs, median, quartiles and
MAD, head's change, wins, sign-test p and `clear`. bench/trajectory/
keeps these files, one per measured change and workload.

With --trace 1 each run also prints its deterministic work counters.
Exits 1 if a counter differs between any two runs, except the counters
named with --expect-moved (which may differ between the sides, but not
within one), and 2 if a run fails or prints no result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXPORTS = ROOT / ".bench_build" / "ab"


class AbError(Exception):
    pass


def git(*args, cwd=ROOT):
    out = subprocess.run(["git", "-C", str(cwd), *args], capture_output=True,
                         text=True)
    if out.returncode != 0:
        raise AbError(f"git {' '.join(args)}: {out.stderr.strip()}")
    return out.stdout.strip()


def checkout(side):
    """The directory that holds `side`: an existing checkout as given, or
    the revision exported once into .bench_build/ab/<sha>."""
    path = Path(side)
    if path.is_dir():
        return path.resolve()
    sha = git("rev-parse", "--verify", side + "^{commit}")
    target = EXPORTS / sha
    if not (target / "perfbench" / "run.py").exists():
        target.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(target)],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            raise AbError(f"could not export {side} ({sha})")
    return target


def commit_of(tree):
    """The commit a checkout holds: an export's directory name, or the
    HEAD of a git checkout with "+dirty" when its tracked files have
    changes; None for a directory outside git."""
    if tree.parent == EXPORTS:
        return tree.name
    try:
        head = git("rev-parse", "HEAD", cwd=tree)
        dirty = git("status", "--porcelain", "--untracked-files=no", cwd=tree)
    except AbError:
        return None
    return head + ("+dirty" if dirty else "")


def run_side(tree, args):
    """One perfbench run of the checkout at `tree`: (metrics, counters)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MECSCHED_")}
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=tree, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise AbError(f"perfbench failed in {tree} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    counters = {}
    for line in lines:
        if line.startswith("counters: "):
            counters = json.loads(line[len("counters: "):])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, counters


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def mad(values):
    """Median absolute deviation from the median."""
    med = statistics.median(values)
    return statistics.median(abs(v - med) for v in values)


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p: the chance under a fair coin of a
    split at least as uneven as wins:losses (ties already dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


# A gain claim needs at least this many pairs: 3 wins of 3 is sign-test
# p 0.25, which is no evidence.
MIN_CLEAR_PAIRS = 10


def summarize(spec_metrics, base_runs, head_runs):
    """Rows of (name, unit, base median, base q1, base q3, head median,
    head q1, head q3, change, wins, pairs, clear, base MAD, head MAD,
    sign-test p) over the metrics both sides report."""
    rows = []
    for m in spec_metrics:
        name = m["name"]
        pairs = [(b[name], h[name]) for b, h in zip(base_runs, head_runs)
                 if name in b and name in h]
        if not pairs:
            continue
        base = [b for b, _ in pairs]
        head = [h for _, h in pairs]
        lower = m["better"] == "lower"
        wins = sum(1 for b, h in pairs if (h < b if lower else h > b))
        losses = sum(1 for b, h in pairs if (h > b if lower else h < b))
        b_med, h_med = statistics.median(base), statistics.median(head)
        b_q1, b_q3 = quartiles(base)
        h_q1, h_q3 = quartiles(head)
        change = (h_med - b_med) / b_med if b_med else 0.0
        gained = h_med < b_med if lower else h_med > b_med
        clear = (gained and len(pairs) >= MIN_CLEAR_PAIRS and
                 10 * wins >= 9 * len(pairs) and
                 abs(h_med - b_med) > b_q3 - b_q1)
        rows.append((name, m["unit"], b_med, b_q1, b_q3, h_med, h_q1, h_q3,
                     change, wins, len(pairs), clear, mad(base), mad(head),
                     sign_test_p(wins, losses)))
    return rows


def counter_diffs(base_counters, head_counters, expect_moved):
    """Counters that are not the same in every run: within a side any
    difference counts; between the sides only counters not expected to
    move do."""
    diffs = set()
    for runs in (base_counters, head_counters):
        for c in runs[1:]:
            diffs |= {k for k in c.keys() | runs[0].keys()
                      if c.get(k) != runs[0].get(k)}
    if base_counters and head_counters:
        b, h = base_counters[0], head_counters[0]
        diffs |= {k for k in b.keys() | h.keys()
                  if b.get(k) != h.get(k) and k not in expect_moved}
    return sorted(diffs)


def print_rows(rows):
    print(f"{'metric':<30} {'base median [q1, q3]':>34} {'MAD':>9} "
          f"{'head median [q1, q3]':>34} {'MAD':>9} {'change':>8} "
          f"{'wins':>6} {'sign p':>7}")
    for (name, unit, b_med, b_q1, b_q3, h_med, h_q1, h_q3, change, wins, n,
         clear, b_mad, h_mad, p) in rows:
        print(f"{name:<30} {b_med:>12.6g} [{b_q1:.6g}, {b_q3:.6g}] "
              f"{b_mad:>9.3g} {h_med:>12.6g} [{h_q1:.6g}, {h_q3:.6g}] "
              f"{h_mad:>9.3g} {100 * change:>+7.1f}% {wins:>3}/{n:<2} "
              f"{p:>7.3g}{'  clear' if clear else ''}  {unit}")


def summary_doc(opts, shas, metrics, rows, runs, moved):
    """The --json-out document: what print_rows shows, plus every run."""
    per_metric = {}
    for (name, unit, b_med, b_q1, b_q3, h_med, h_q1, h_q3, change, wins, n,
         clear, b_mad, h_mad, p) in rows:
        better = next(m["better"] for m in metrics if m["name"] == name)
        per_metric[name] = {
            "unit": unit, "better": better,
            "base": {"runs": [r[name] for r in runs["base"] if name in r],
                     "median": b_med, "q1": b_q1, "q3": b_q3, "mad": b_mad},
            "head": {"runs": [r[name] for r in runs["head"] if name in r],
                     "median": h_med, "q1": h_q1, "q3": h_q3, "mad": h_mad},
            "change": change, "wins": wins, "pairs": n, "sign_p": p,
            "clear": clear}
    return {
        "schema": "mecsched.ab.v1",
        "workload": opts.workload, "pairs": opts.pairs,
        "seconds": opts.seconds, "seed": opts.seed, "trace": opts.trace,
        "base": {"rev": opts.base, "sha": shas["base"]},
        "head": {"rev": opts.head, "sha": shas["head"]},
        "nproc": len(os.sched_getaffinity(0)),
        "metrics": per_metric,
        "counters_moved": moved,
    }


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def self_test():
    spec = [{"name": "solve_ms_p50", "unit": "ms", "better": "lower"},
            {"name": "decisions_per_s", "unit": "1/s", "better": "higher"},
            {"name": "placed_share", "unit": "1", "better": "higher"}]
    base = [{"solve_ms_p50": v, "decisions_per_s": 100.0,
             "placed_share": 0.9} for v in (200, 210, 190, 205, 195, 220,
                                            185, 200, 215, 198)]
    head = [{"solve_ms_p50": v, "decisions_per_s": d, "placed_share": 0.9}
            for v, d in zip((170, 172, 168, 175, 169, 230, 166, 171, 173,
                             170),
                            (101, 99, 100, 102, 98, 100, 103, 97, 100, 101))]
    rows = {r[0]: r for r in summarize(spec, base, head)}
    checks = [
        ("solve wins", rows["solve_ms_p50"][9], 9),
        ("solve clear", rows["solve_ms_p50"][11], True),
        ("solve base median", rows["solve_ms_p50"][2], 200.0),
        ("solve head median", rows["solve_ms_p50"][5], 170.5),
        ("decisions: ties and losses are not wins",
         rows["decisions_per_s"][9], 4),
        ("decisions not clear", rows["decisions_per_s"][11], False),
        ("identical metric: no wins", rows["placed_share"][9], 0),
        ("identical metric not clear", rows["placed_share"][11], False),
        ("solve base MAD", rows["solve_ms_p50"][12], 7.5),
        ("solve head MAD", rows["solve_ms_p50"][13], 2.0),
        ("identical metric: MAD 0", rows["placed_share"][12], 0.0),
        # 9 wins, 1 loss: 2 * (C(10,0) + C(10,1)) / 2^10.
        ("solve sign p", rows["solve_ms_p50"][14], 22 / 1024),
        # 4 wins, 3 losses, 3 ties dropped: no evidence either way.
        ("decisions sign p", rows["decisions_per_s"][14], 1.0),
        ("all ties: sign p 1", rows["placed_share"][14], 1.0),
        ("sign p is two-sided", sign_test_p(0, 10), sign_test_p(10, 0)),
        ("sign p of 10 of 10", sign_test_p(10, 0), 2 / 1024),
        ("sign p of 7 of 9", sign_test_p(7, 2), 2 * 46 / 512),
        ("sign p never above 1", sign_test_p(5, 5), 1.0),
        ("MAD of one run", mad([3.0]), 0.0),
        ("MAD", mad([1.0, 2.0, 3.0, 4.0, 100.0]), 1.0),
        ("quartiles of one run", quartiles([3.0]), (3.0, 3.0)),
        ("quartiles", quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0)),
    ]
    # Fewer than 9 wins in 10 is not clear, however large the change.
    eight = [dict(h) for h in head]
    eight[0]["solve_ms_p50"] = 250
    checks.append(("8 of 10 not clear",
                   summarize(spec, base, eight)[0][11], False))
    # Too few pairs are not clear, however one-sided: 3 of 3 is p 0.25.
    three = summarize(spec, base[:3], head[:3])[0]
    checks += [("3 of 3 wins", three[9], 3),
               ("3 of 3 not clear", three[11], False),
               ("10 of 10 clear",
                summarize(spec, base, [dict(h, solve_ms_p50=160)
                                       for h in head])[0][11], True)]
    same = {"lp.simplex.pivots": 8053, "serve.shard.devices": 265239}
    moved = dict(same, **{"lp.simplex.pivots": 8000})
    checks += [
        ("equal counters", counter_diffs([same, same], [same, same], []), []),
        ("moved counter", counter_diffs([same], [moved], []),
         ["lp.simplex.pivots"]),
        ("expected move", counter_diffs([same], [moved],
                                        ["lp.simplex.pivots"]), []),
        ("expected move still repeats within a side",
         counter_diffs([same], [moved, same], ["lp.simplex.pivots"]),
         ["lp.simplex.pivots"]),
        ("counter missing on one side",
         counter_diffs([same], [{"lp.simplex.pivots": 8053}], []),
         ["serve.shard.devices"]),
    ]
    opts = argparse.Namespace(workload="serve_city", pairs=10, seconds=50.0,
                              seed=None, trace=0, base="HEAD~1", head=".")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ab.json"
        write_json(path, summary_doc(
            opts, {"base": "a" * 40, "head": "b" * 40 + "+dirty"}, spec,
            summarize(spec, base, head), {"base": base, "head": head}, []))
        doc = json.loads(path.read_text())
    solve = doc["metrics"]["solve_ms_p50"]
    checks += [
        ("json schema", doc["schema"], "mecsched.ab.v1"),
        ("json shas", (doc["base"]["sha"], doc["head"]["sha"]),
         ("a" * 40, "b" * 40 + "+dirty")),
        ("json revs", (doc["base"]["rev"], doc["head"]["rev"]),
         ("HEAD~1", ".")),
        ("json nproc", doc["nproc"] >= 1, True),
        ("json base runs", solve["base"]["runs"],
         [b["solve_ms_p50"] for b in base]),
        ("json head runs", solve["head"]["runs"],
         [h["solve_ms_p50"] for h in head]),
        ("json medians", (solve["base"]["median"], solve["head"]["median"]),
         (200.0, 170.5)),
        ("json quartiles", (solve["base"]["q1"], solve["base"]["q3"]),
         quartiles([b["solve_ms_p50"] for b in base])),
        ("json wins and clear", (solve["wins"], solve["pairs"],
                                 solve["clear"]), (9, 10, True)),
        ("json better", solve["better"], "lower"),
        ("json not clear", doc["metrics"]["decisions_per_s"]["clear"], False),
        ("json metrics", sorted(doc["metrics"]),
         ["decisions_per_s", "placed_share", "solve_ms_p50"]),
    ]
    ok = True
    for what, got, want in checks:
        if got != want:
            print(f"self-test FAIL: {what}: got {got!r}, want {want!r}")
            ok = False
    print("self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-moved", nargs="*", default=[])
    parser.add_argument("--json-out")
    opts = parser.parse_args()
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if opts.trace else "end_to_end"]
    args = ["--workload", opts.workload, "--seconds", str(opts.seconds),
            "--trace", str(opts.trace)]
    if opts.seed is not None:
        args += ["--seed", str(opts.seed)]

    try:
        trees = {"base": checkout(opts.base), "head": checkout(opts.head)}
        runs = {"base": [], "head": []}
        counters = {"base": [], "head": []}
        for i in range(opts.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                m, c = run_side(trees[side], args)
                runs[side].append(m)
                counters[side].append(c)
            print(f"pair {i + 1}/{opts.pairs} done ({order[0]} first)",
                  file=sys.stderr)
    except AbError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    print(f"base {opts.base} ({trees['base']})")
    print(f"head {opts.head} ({trees['head']})")
    print(f"workload {opts.workload}, {opts.pairs} alternating pairs, "
          f"{opts.seconds:g} s, trace {opts.trace}")
    rows = summarize(metrics, runs["base"], runs["head"])
    print_rows(rows)
    print("runs, in pair order:")
    for m in metrics:
        name = m["name"]
        for side in ("base", "head"):
            values = " ".join(f"{r[name]:.6g}" for r in runs[side] if name in r)
            print(f"  {name} {side}: {values}")
    diffs = counter_diffs(counters["base"], counters["head"],
                          set(opts.expect_moved)) if opts.trace else []
    if opts.json_out:
        shas = {side: commit_of(tree) for side, tree in trees.items()}
        write_json(opts.json_out,
                   summary_doc(opts, shas, metrics, rows, runs, diffs))
    if not opts.trace:
        return 0
    for k in diffs:
        vals = sorted({c.get(k) for side in counters.values() for c in side},
                      key=str)
        print(f"COUNTER MOVED: {k}: {vals}")
    if not diffs:
        print(f"work counters: {len(counters['base'][0])} identical"
              + (f" (expected to move: {', '.join(opts.expect_moved)})"
                 if opts.expect_moved else ""))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
