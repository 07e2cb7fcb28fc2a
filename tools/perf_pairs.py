#!/usr/bin/env python3
"""Compare the benchmark of a git revision and the work tree in pairs.

Usage, from anywhere inside a checkout:

    python3 tools/perf_pairs.py --against REV --pairs N --seconds S \\
        [--workloads W ...] [--seed SEED] [--json PATH]
    python3 tools/perf_pairs.py --selftest

The first form extracts REV into a temporary directory (`git archive`),
then runs `python3 <tree>/perfbench/run.py --workload W --seed SEED --seconds S
--trace 0` N times in each tree (SEED is 1 unless --seed is given),
alternating between the two: pair i runs REV first when i is even and the
work tree first when it is odd, so a drift of the host over time lands on
both sides. Each tree builds its own `.bench_build`, so the first pair also
builds both.

For every workload and every end-to-end metric named in BENCHMARK.json it
prints the median [interquartile range] of REV's runs and of the work
tree's, the change of the medians, the pairs in which the work tree was
better (by the metric's "better" direction) and the exact one-sided
sign-test p-value of that many wins: the chance of at least as many under
a fair coin, over the pairs that are not ties. --json also saves every
run's value and the p-values. The exit status is 1 when any run reports
`correct: false` or `failed > 0`, 2 on a usage or run error, else 0. The
extracted tree is removed afterwards in every case.

--selftest checks the median, quartile, wins and sign-test helpers on fixed
numbers.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def die(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def quantile(values, q):
    """Linear-interpolation quantile (numpy's default) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values):
    """(median, first quartile, third quartile) of a non-empty list."""
    return (quantile(values, 0.5), quantile(values, 0.25),
            quantile(values, 0.75))


def wins(base, change, better):
    """Pairs in which `change` beats `base`; ties are not wins."""
    if better == "lower":
        return sum(1 for b, c in zip(base, change) if c < b)
    return sum(1 for b, c in zip(base, change) if c > b)


def losses(base, change, better):
    """Pairs in which `change` is worse than `base`."""
    return wins(change, base, better)


def sign_p(won, lost):
    """Exact one-sided sign-test p-value: P(X >= won) for X ~ Bin(n, 1/2),
    n = won + lost (ties dropped). 1 when every pair is a tie."""
    n = won + lost
    return Fraction(sum(math.comb(n, k) for k in range(won, n + 1)), 2 ** n)


def selftest():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    median, q1, q3 = summarize(values)
    assert median == 3.5, median
    assert q1 == 1.75, q1
    assert q3 == 5.25, q3
    assert summarize([7.0]) == (7.0, 7.0, 7.0)
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0
    base = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.0, 3.5, 3.0]
    assert wins(base, change, "lower") == 2
    assert wins(base, change, "higher") == 1
    assert losses(base, change, "lower") == 1
    assert sign_p(8, 2) == Fraction(56, 1024), sign_p(8, 2)
    assert sign_p(10, 0) == Fraction(1, 1024)
    assert sign_p(9, 1) == Fraction(11, 1024)
    assert sign_p(0, 4) == 1
    assert sign_p(0, 0) == 1
    print("perf_pairs selftest: ok")


def run_tree(tree, workload, seed, seconds):
    """One benchmark run in `tree`; returns its parsed result line."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr)
        raise RuntimeError("%s exited with status %d" % (" ".join(cmd),
                                                         done.returncode))
    return json.loads(lines[-1])


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args),
                          capture_output=True, text=True, check=False)


def measure(base_tree, args, contract):
    """Runs every pair; returns (report, all runs correct)."""
    report = {}
    correct = True
    for workload in args.workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                tree = base_tree if side == "base" else ROOT
                result = run_tree(tree, workload, args.seed, args.seconds)
                if not result["correct"] or result["failed"] > 0:
                    print("%s: %s run %d: correct=%s failed=%d" %
                          (workload, side, i, result["correct"],
                           result["failed"]), file=sys.stderr)
                    correct = False
                runs[side].append(result["metrics"])
            print("%s: pair %d/%d done" % (workload, i + 1, args.pairs),
                  file=sys.stderr, flush=True)
        rows = {}
        for metric in contract["end_to_end"]:
            name = metric["name"]
            base = [m[name]["value"] for m in runs["base"]]
            change = [m[name]["value"] for m in runs["change"]]
            base_med, base_q1, base_q3 = summarize(base)
            change_med, change_q1, change_q3 = summarize(change)
            won = wins(base, change, metric["better"])
            rows[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "base": base,
                "change": change,
                "base_median": base_med,
                "base_iqr": base_q3 - base_q1,
                "change_median": change_med,
                "change_iqr": change_q3 - change_q1,
                "delta": (change_med / base_med - 1.0) if base_med else 0.0,
                "wins": won,
                "sign_p": float(sign_p(won,
                                       losses(base, change, metric["better"]))),
            }
        report[workload] = rows
    return report, correct


def print_report(report, against, pairs, seed):
    print("base = %s, change = work tree, %d pairs, seed %d" %
          (against, pairs, seed))
    for workload, rows in report.items():
        print(workload)
        for name, r in rows.items():
            print("  %-16s %-6s base %.6g [%.3g]  change %.6g [%.3g]  "
                  "%+.1f%%  wins %d/%d p=%.4f (%s is better)" %
                  (name, r["unit"], r["base_median"], r["base_iqr"],
                   r["change_median"], r["change_iqr"], 100 * r["delta"],
                   r["wins"], pairs, r["sign_p"], r["better"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="git revision to compare with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; a claim should also hold on "
                             "a seed not used while writing the change")
    parser.add_argument("--json", help="also save the report here")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return 0

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            contract = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    names = [w["name"] for w in contract["workloads"]]
    args.workloads = args.workloads or names
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        die("unknown workloads %s (BENCHMARK.json has %s)" %
            (unknown, ", ".join(names)))
    if (not args.against or args.pairs < 1 or args.seed < 0 or
            not 0 < args.seconds <= 600):
        die("need --against REV, --pairs >= 1, --seed >= 0 and --seconds "
            "in (0, 600]")
    if git("rev-parse", "--verify", args.against + "^{commit}").returncode:
        die("not a revision: " + args.against)

    scratch = tempfile.mkdtemp(prefix="perf_pairs-")
    base_tree = os.path.join(scratch, "base")
    archive = os.path.join(scratch, "base.tar")
    try:
        done = git("archive", "--format=tar", "-o", archive, args.against)
        if done.returncode != 0:
            die("git archive failed: " + done.stderr.strip())
        with tarfile.open(archive) as tar:
            tar.extractall(base_tree, filter="data")
        try:
            report, correct = measure(base_tree, args, contract)
        except RuntimeError as e:
            die(str(e))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print_report(report, args.against, args.pairs, args.seed)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"against": args.against, "pairs": args.pairs,
                       "seed": args.seed, "seconds": args.seconds,
                       "workloads": report},
                      f, indent=2)
            f.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
