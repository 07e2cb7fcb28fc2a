#!/usr/bin/env python3
"""Compare the benchmark of a git revision and the work tree in pairs.

Usage, from anywhere inside a checkout:

    python3 tools/perf_pairs.py --against REV --pairs N --seconds S \\
        [--workloads W ...] [--seed SEED] [--json PATH]
    python3 tools/perf_pairs.py --rescore PATH
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
a fair coin, over the pairs that are not ties. Then the median of the
per-pair ratios change/base with a 95% percentile-bootstrap interval
(BOOTSTRAP_RESAMPLES resamples, seeded with BOOTSTRAP_SEED, so the same
values give the same interval). Each resample strings together blocks of
about sqrt(N) consecutive pairs, wrapping around at the end (a circular
block bootstrap): host drift moves neighbouring pairs together, and
resampling single pairs as if independent would read the interval too
narrow. Then a verdict: "faster" or
"slower" when the two-sided sign test rejects "no change" under Holm's
step-down correction over every metric of every workload in the report, at
the family-wise level ALPHA (0.05) that the report states, and "no claim"
otherwise. "faster" means better in the metric's direction, so it also
reads "smaller" for peak_rss_mb. With 10 pairs and 24 metrics only 10 of
10 wins can make a claim. --json also saves every run's value and
these statistics. The exit status is 1 when any run reports `correct:
false` or `failed > 0`, 2 on a usage or run error, else 0. The extracted
tree is removed afterwards in every case.

--rescore re-reads a saved --json report, or BENCH_perfbench.json, and
prints it again with the statistics recomputed. A run that kept only win
counts, not every pair's value, is skipped with a note.

--selftest checks the median, quartile, wins, sign-test, block resampler,
bootstrap, Holm and verdict helpers on fixed numbers.
"""

import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP_RESAMPLES = 4000
BOOTSTRAP_SEED = 20260101
ALPHA = 0.05


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


def ratios(base, change):
    """change/base for every pair; a pair whose base is 0 counts as 1 when
    its change is 0 too, and is dropped otherwise."""
    out = []
    for b, c in zip(base, change):
        if b:
            out.append(c / b)
        elif not c:
            out.append(1.0)
    return out


def block_length(n):
    """Pairs per bootstrap block for n pairs: about sqrt(n), at least 1."""
    return max(1, round(math.sqrt(n)))


def block_resample(values, rng, block):
    """One circular block-bootstrap resample of `values`, which are in run
    order: runs of `block` consecutive values, each from a uniformly drawn
    start and wrapping past the end, strung together and cut to
    len(values)."""
    n = len(values)
    out = []
    while len(out) < n:
        start = rng.randrange(n)
        out.extend(values[(start + k) % n] for k in range(block))
    return out[:n]


def bootstrap_median(values, resamples=BOOTSTRAP_RESAMPLES,
                     seed=BOOTSTRAP_SEED, block=None):
    """95% percentile-bootstrap interval (lo, hi) for the median of
    `values` (in run order), resampled in blocks of `block` consecutive
    values (block_length by default) from a fixed seed; (None, None) for an
    empty list."""
    if not values:
        return None, None
    rng = random.Random(seed)
    block = block or block_length(len(values))
    medians = [quantile(block_resample(values, rng, block), 0.5)
               for _ in range(resamples)]
    return quantile(medians, 0.025), quantile(medians, 0.975)


def two_sided_p(won, lost):
    """Exact two-sided sign-test p-value of `won` wins and `lost` losses."""
    return min(Fraction(1), 2 * min(sign_p(won, lost), sign_p(lost, won)))


def holm(p_values, alpha):
    """Holm's step-down test: which of `p_values` are rejected at
    family-wise level `alpha` (a list of bools in the same order)."""
    order = sorted(range(len(p_values)), key=lambda i: p_values[i])
    rejected = [False] * len(p_values)
    for rank, i in enumerate(order):
        if p_values[i] * (len(p_values) - rank) > alpha:
            break
        rejected[i] = True
    return rejected


def score(report):
    """Adds the per-metric statistics to a report of every pair's values:
    {workload: {metric: {"unit", "better", "base", "change"}}}."""
    family = []
    for rows in report.values():
        for r in rows.values():
            base, change, better = r["base"], r["change"], r["better"]
            base_med, base_q1, base_q3 = summarize(base)
            change_med, change_q1, change_q3 = summarize(change)
            won = wins(base, change, better)
            lost = losses(base, change, better)
            per_pair = ratios(base, change)
            lo, hi = bootstrap_median(per_pair)
            r.update({
                "base_median": base_med,
                "base_iqr": base_q3 - base_q1,
                "change_median": change_med,
                "change_iqr": change_q3 - change_q1,
                "delta": (change_med / base_med - 1.0) if base_med else 0.0,
                "wins": won,
                "losses": lost,
                "sign_p": float(sign_p(won, lost)),
                "two_sided_p": float(two_sided_p(won, lost)),
                "ratio_median": (quantile(per_pair, 0.5) if per_pair
                                 else None),
                "ratio_ci95": [lo, hi],
            })
            family.append(r)
    rejected = holm([r["two_sided_p"] for r in family], ALPHA)
    for r, hit in zip(family, rejected):
        r["verdict"] = ("no claim" if not hit else
                        "faster" if r["wins"] > r["losses"] else "slower")
    return report


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
    assert two_sided_p(10, 0) == Fraction(2, 1024)
    assert two_sided_p(1, 9) == Fraction(22, 1024)
    assert two_sided_p(5, 5) == 1
    assert two_sided_p(0, 0) == 1
    assert ratios([2.0, 0.0, 0.0, 4.0], [1.0, 0.0, 3.0, 5.0]) == \
        [0.5, 1.0, 1.25]
    # The block resampler keeps runs of consecutive values, wrapping at the
    # end: within a block each value follows its predecessor.
    assert [block_length(n) for n in (1, 3, 10, 20)] == [1, 2, 3, 4]
    order = list(range(10))
    rng = random.Random(7)
    for _ in range(50):
        sample = block_resample(order, rng, 3)
        assert len(sample) == 10, sample
        for i in range(1, 10):
            if i % 3:
                assert sample[i] == (sample[i - 1] + 1) % 10, sample
    rotation = block_resample(order, rng, 10)
    start = rotation[0]
    assert rotation == [(start + k) % 10 for k in range(10)], rotation
    # The bootstrap interval is seeded: fixed values give fixed bounds.
    spread = [0.78, 0.81, 0.80, 0.95, 0.79, 0.83, 0.77, 0.82, 0.80, 0.84]
    lo, hi = bootstrap_median(spread)
    assert (lo, hi) == bootstrap_median(spread)
    assert (lo, hi) == (0.795, 0.825), (lo, hi)
    assert lo <= quantile(spread, 0.5) <= hi
    assert bootstrap_median([0.8] * 10) == (0.8, 0.8)
    assert bootstrap_median([]) == (None, None)
    # Drift: the ratios climb pair by pair. Blocks keep neighbours together,
    # so the interval is wider than that of single pairs resampled as if
    # independent.
    drift = [0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99]
    lo, hi = bootstrap_median(drift)
    iid_lo, iid_hi = bootstrap_median(drift, block=1)
    assert hi - lo > iid_hi - iid_lo, ((lo, hi), (iid_lo, iid_hi))
    # Holm at 0.05 over four p-values: 0.005 <= 0.05/4 and 0.01 <= 0.05/3
    # are rejected; 0.03 > 0.05/2 stops the step-down.
    assert holm([0.01, 0.04, 0.03, 0.005], 0.05) == [True, False, False, True]
    assert holm([0.06], 0.05) == [False]
    assert holm([], 0.05) == []

    def pairs(base, change, metrics=1):
        rows = {"m%d" % i: {"unit": "s", "better": "lower", "base": base,
                            "change": change} for i in range(metrics)}
        return score({"w": rows})["w"]["m0"]

    base = [float(10 + i) for i in range(10)]
    faster = [b * 0.8 for b in base]
    assert pairs(base, faster)["verdict"] == "faster"
    # 10 of 10 pairs: 2/1024 <= 0.05/24, a claim even over 24 metrics.
    assert pairs(base, faster, metrics=24)["verdict"] == "faster"
    assert pairs(faster, base)["verdict"] == "slower"
    assert pairs(base, faster)["ratio_ci95"] == [0.8, 0.8]
    # 9 of 10 pairs: 22/1024 claims alone but not over 24 metrics.
    nine = faster[:9] + [base[9] * 1.1]
    assert pairs(base, nine)["verdict"] == "faster"
    assert pairs(base, nine, metrics=24)["verdict"] == "no claim"
    assert pairs(base, list(base))["verdict"] == "no claim"
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
            rows[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "base": [m[name]["value"] for m in runs["base"]],
                "change": [m[name]["value"] for m in runs["change"]],
            }
        report[workload] = rows
    return report, correct


def print_report(report, base, change, pairs, seed):
    print("base = %s, change = %s, %d pairs, seed %d" %
          (base, change, pairs, seed))
    family = sum(len(rows) for rows in report.values())
    print("verdicts: two-sided sign test, Holm over %d metrics at "
          "family-wise alpha %g; ratio = change/base, median [95%% "
          "bootstrap interval, %d resamples, seed %d]" %
          (family, ALPHA, BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED))
    for workload, rows in report.items():
        print(workload)
        for name, r in rows.items():
            lo, hi = r["ratio_ci95"]
            interval = ("ratio %.4g [%.4g, %.4g]" %
                        (r["ratio_median"], lo, hi) if lo is not None
                        else "ratio -")
            print("  %-16s %-6s base %.6g [%.3g]  change %.6g [%.3g]  "
                  "%+.1f%%  wins %d/%d p=%.4f  %s  %s (%s is better)" %
                  (name, r["unit"], r["base_median"], r["base_iqr"],
                   r["change_median"], r["change_iqr"], 100 * r["delta"],
                   r["wins"], len(r["base"]), r["sign_p"], interval,
                   r["verdict"], r["better"]))


def rescore(path):
    """Reprints a saved report, or every BENCH_perfbench.json run that kept
    each pair's value, with its statistics recomputed."""
    try:
        with open(path) as f:
            saved = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))
    if isinstance(saved, dict):
        entries = [{"parent_commit": saved.get("against", "?"),
                    "runs": [saved]}]
    else:
        entries = saved
    for entry in entries:
        for run in entry.get("runs", []):
            report = run.get("workloads", {})
            kept = all("base" in r and "change" in r
                       for rows in report.values() for r in rows.values())
            label = ("entry %s, " % entry["pr"]) if entry.get("pr") else ""
            if not report or not kept:
                print("%sseed %s: only win counts kept; skipped" %
                      (label, run.get("seed")))
                continue
            score(report)
            print_report(report, label + entry.get("parent_commit", "?"),
                         entry.get("change_commit", "change"), run["pairs"],
                         run["seed"])


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
    parser.add_argument("--rescore", metavar="PATH",
                        help="reprint a saved report with its statistics")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return 0
    if args.rescore:
        rescore(args.rescore)
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

    score(report)
    print_report(report, args.against, "work tree", args.pairs, args.seed)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"against": args.against, "pairs": args.pairs,
                       "seed": args.seed, "seconds": args.seconds,
                       "alpha": ALPHA,
                       "bootstrap": {"resamples": BOOTSTRAP_RESAMPLES,
                                     "seed": BOOTSTRAP_SEED},
                       "workloads": report},
                      f, indent=2)
            f.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
