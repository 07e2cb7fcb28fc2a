#!/usr/bin/env python3
"""Check a crmd bench --json result: its shape, and same-machine gates.

The slot-engine harness (bench/bench_slot_engine.cpp) emits the shape every
crmd bench does: {"meta": {...}, "rows": [{...}, ...]} with string-valued
cells. Rows are keyed by (scenario, jobs); the figure of merit is
slots_per_sec.

Modes:
  check_perf.py result.json --check-only
      Validate the JSON shape only (meta present, required columns, positive
      throughput). Exit 1 on malformed output. This is the CI smoke gate.
      Timeline JSONs (--timeline=FILE, schema "crmd-timeline-v1") are
      recognized and get their own structural validation instead: bucket
      geometry (power-of-two width/count, contiguous slot windows),
      non-negative counters, and a prob_level histogram that sums to the
      bucket's attempts.

Every mode also honors repeatable --expect SUBSTR flags: each SUBSTR must
match at least one scenario key in the current file, so a sweep that
silently drops a point (a skipped protocol x feedback-model cell, a
renamed scenario) fails loudly instead of sailing through shape checks.

  check_perf.py second.json --self-check first.json [--threshold 0.65]
      Self-relative gate: both files come from the SAME machine in the
      SAME CI job (the harness run twice back to back), so cross-machine
      variance is gone and the comparison can block. Every sweep point of
      the first run must be present in the second; fail (exit 1) when any
      point's second-run throughput collapses below threshold x the
      first run (default 0.65 = a >35% run-to-run drop, which on an idle
      runner means a real pathology — a warmup-order dependency, a leak,
      or state accumulated by the first run).

  check_perf.py mega.json --speedup-over dense.json --speedup-factor 10 \
                          [--speedup-match SUBSTR ...]
      Blocking same-machine speedup gate (the mega-scale acceptance
      criterion): every current row whose scenario contains one of the
      --speedup-match substrings (all rows when none are given) must reach
      at least speedup-factor x the BEST slots_per_sec of the reference
      file. Both files must come from the same machine/job, like
      --self-check; the reference is a dense-engine harness
      (bench_slot_engine), so row keys are not expected to match.

Every mode validates mega-scale meta when present: fast_forward_slots and
live_peak must be non-negative ints, shards a positive int. Repeatable
--require-meta KEY flags make a meta key's absence an error (exit 1) —
use them to pin that a harness actually stamps its provenance.

There is no comparison against a result from another machine: a
regression of the benchmark is measured on one host by
tools/perf_pairs.py, which alternates runs of two revisions.

Exit codes: 0 ok, 1 regression or malformed input, 2 usage error (also
when no mode is given).
"""

import argparse
import json
import sys

REQUIRED_COLUMNS = ("scenario", "jobs", "slots", "wall_ms", "slots_per_sec")

TIMELINE_SCHEMA = "crmd-timeline-v1"
TIMELINE_COUNT_FIELDS = (
    "resolved_slots", "live_job_slots", "attempts",
    "true_silence", "true_success", "true_noise",
    "seen_silence", "seen_success", "seen_noise",
    "activations", "retires", "expiries", "faults",
    "awake_job_slots", "radio_sleeps", "radio_wakes",
)
TIMELINE_PROB_LEVELS = 16


def validate_timeline(path, doc):
    """Structural check of a crmd-timeline-v1 document (see obs/timeline.hpp).

    Returns the number of populated buckets; raises ValueError on any shape
    violation.
    """
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: timeline 'meta' is not an object")
    if meta.get("schema") != TIMELINE_SCHEMA:
        raise ValueError(f"{path}: timeline schema is {meta.get('schema')!r}, "
                         f"expected {TIMELINE_SCHEMA!r}")
    width = meta.get("bucket_width")
    count = meta.get("bucket_count")
    for name, value in (("bucket_width", width), ("bucket_count", count)):
        if not isinstance(value, int) or value < 1 or value & (value - 1):
            raise ValueError(f"{path}: meta.{name} must be a positive power "
                             f"of two, got {value!r}")
    if not isinstance(meta.get("events"), int) or meta["events"] < 0:
        raise ValueError(f"{path}: meta.events must be a non-negative int")
    buckets = doc.get("buckets")
    if not isinstance(buckets, list):
        raise ValueError(f"{path}: 'buckets' is not a list")
    if len(buckets) > count:
        raise ValueError(f"{path}: {len(buckets)} buckets exceed "
                         f"bucket_count {count}")
    for i, bucket in enumerate(buckets):
        lo, hi = bucket.get("slot_lo"), bucket.get("slot_hi")
        if lo != i * width or hi != lo + width - 1:
            raise ValueError(f"{path}: bucket {i} window [{lo}, {hi}] does "
                             f"not match contiguous width-{width} windows")
        for field in TIMELINE_COUNT_FIELDS:
            value = bucket.get(field)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{path}: bucket {i} field '{field}' must "
                                 f"be a non-negative int, got {value!r}")
        if not isinstance(bucket.get("contention_sum"), (int, float)):
            raise ValueError(f"{path}: bucket {i} contention_sum is not a "
                             f"number")
        levels = bucket.get("prob_level")
        if (not isinstance(levels, list)
                or len(levels) != TIMELINE_PROB_LEVELS
                or any(not isinstance(n, int) or n < 0 for n in levels)):
            raise ValueError(f"{path}: bucket {i} prob_level must be "
                             f"{TIMELINE_PROB_LEVELS} non-negative ints")
        if sum(levels) != bucket["attempts"]:
            raise ValueError(f"{path}: bucket {i} prob_level sums to "
                             f"{sum(levels)} but attempts is "
                             f"{bucket['attempts']}")
    max_slot = meta.get("max_slot")
    if not isinstance(max_slot, int):
        raise ValueError(f"{path}: meta.max_slot must be an int")
    if buckets:
        last = buckets[-1]
        if not last["slot_lo"] <= max_slot <= last["slot_hi"]:
            raise ValueError(f"{path}: meta.max_slot {max_slot} falls "
                             f"outside the last bucket window")
    elif max_slot >= 0:
        raise ValueError(f"{path}: meta.max_slot {max_slot} but no buckets")
    return len(buckets)


def load_rows(path):
    """Returns (meta, {(scenario, jobs): row_dict}) or raises ValueError."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError(f"{path}: expected an object with a 'rows' list")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: 'meta' is not an object")
    rows = {}
    for i, row in enumerate(doc["rows"]):
        missing = [c for c in REQUIRED_COLUMNS if c not in row]
        if missing:
            raise ValueError(f"{path}: row {i} missing columns {missing}")
        key = (row["scenario"], int(row["jobs"]))
        rate = float(row["slots_per_sec"])
        if rate <= 0:
            raise ValueError(f"{path}: row {i} ({key}): slots_per_sec <= 0")
        if key in rows:
            raise ValueError(f"{path}: duplicate sweep point {key}")
        row = dict(row)
        row["__row__"] = i  # position in the file, for error messages
        rows[key] = row
    if not rows:
        raise ValueError(f"{path}: no rows")
    return meta, rows


META_INT_FIELDS = (
    # (key, minimum) — validated whenever the key is present in meta.
    ("fast_forward_slots", 0),
    ("live_peak", 0),
    ("shards", 1),
)


def validate_meta(path, meta):
    """Mega-scale meta sanity: counters are ints within range; the
    per_shard array (when present) is a list of objects with int shard
    ids. Raises ValueError on violations."""
    for key, minimum in META_INT_FIELDS:
        if key not in meta:
            continue
        value = meta[key]
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < minimum:
            raise ValueError(f"{path}: meta.{key} must be an int >= "
                             f"{minimum}, got {value!r}")
    shards = meta.get("shards")
    per_shard = meta.get("per_shard")
    if per_shard is not None:
        if not isinstance(per_shard, list):
            raise ValueError(f"{path}: meta.per_shard is not a list")
        for i, entry in enumerate(per_shard):
            if not isinstance(entry, dict) or entry.get("shard") != i:
                raise ValueError(f"{path}: meta.per_shard[{i}] must be an "
                                 f"object with shard id {i}")
        if isinstance(shards, int) and per_shard \
                and len(per_shard) != shards:
            raise ValueError(f"{path}: meta.per_shard has "
                             f"{len(per_shard)} entries but meta.shards is "
                             f"{shards}")


def check_required_meta(path, meta, required):
    """Each --require-meta KEY must be present. Returns missing count."""
    missing = 0
    for key in required:
        if key not in meta:
            print(f"check_perf: FAIL: {path}: meta is missing required "
                  f"key '{key}'", file=sys.stderr)
            missing += 1
    return missing


def check_expected(expects, current):
    """Each --expect substring must match >= 1 scenario key. Returns the
    number of unmatched expectations (0 = all present)."""
    unmatched = 0
    for expect in expects:
        if not any(expect in scenario for scenario, _ in current):
            print(f"check_perf: FAIL: no sweep point matches "
                  f"--expect '{expect}'", file=sys.stderr)
            unmatched += 1
    return unmatched


def run_speedup_gate(args, current):
    """Blocking same-machine mega-scale gate; see the module docstring."""
    factor = args.speedup_factor
    if factor <= 0:
        print("check_perf: --speedup-factor must be > 0", file=sys.stderr)
        return 2
    try:
        _, reference = load_rows(args.speedup_over)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_perf: FAIL: {e}", file=sys.stderr)
        return 1
    ref_best = max(float(r["slots_per_sec"]) for r in reference.values())
    need = factor * ref_best

    matches = {
        key: row for key, row in current.items()
        if not args.speedup_match
        or any(sub in key[0] for sub in args.speedup_match)
    }
    if not matches:
        print(f"check_perf: FAIL: no current rows match --speedup-match "
              f"{args.speedup_match}", file=sys.stderr)
        return 1

    failures = []
    print(f"reference best: {ref_best:.4g} slots/sec; gate: "
          f">= {factor}x = {need:.4g}")
    print(f"{'scenario':<24} {'jobs':>10} {'slots/sec':>12} {'x ref':>8}")
    for key in sorted(matches):
        cur = float(matches[key]["slots_per_sec"])
        ratio = cur / ref_best
        flag = "" if cur >= need else "  << BELOW GATE"
        print(f"{key[0]:<24} {key[1]:>10} {cur:>12.4g} {ratio:>8.1f}{flag}")
        if cur < need:
            failures.append((key, ratio))

    if failures:
        print(f"check_perf: FAIL: {len(failures)} row(s) below {factor}x "
              f"the reference best", file=sys.stderr)
        return 1
    print(f"check_perf: ok: {len(matches)} row(s) >= {factor}x the "
          f"reference best")
    return 0


def run_self_check(args, current):
    """Blocking same-machine comparison; see the module docstring."""
    threshold = args.threshold
    if threshold <= 0:
        print("check_perf: --threshold must be > 0", file=sys.stderr)
        return 2
    try:
        _, first = load_rows(args.self_check)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_perf: FAIL: {e}", file=sys.stderr)
        return 1

    missing = sorted(set(first) - set(current))
    if missing:
        print(f"check_perf: FAIL: second run is missing sweep points "
              f"{missing}", file=sys.stderr)
        return 1

    failures = []
    print(f"{'scenario':<40} {'jobs':>6} {'run 1':>12} {'run 2':>12} "
          f"{'ratio':>7}")
    for key in sorted(first):
        base = float(first[key]["slots_per_sec"])
        cur = float(current[key]["slots_per_sec"])
        ratio = cur / base
        flag = "" if ratio >= threshold else "  << COLLAPSE"
        print(f"{key[0]:<40} {key[1]:>6} {base:>12.4g} {cur:>12.4g} "
              f"{ratio:>7.2f}{flag}")
        if ratio < threshold:
            failures.append((key, ratio))

    if failures:
        print(f"check_perf: FAIL: {len(failures)} point(s) collapsed below "
              f"{threshold}x of the same-machine first run", file=sys.stderr)
        return 1
    print(f"check_perf: ok: {len(first)} points >= {threshold}x of the "
          f"same-machine first run")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="bench JSON checker (see module docstring)")
    parser.add_argument("current", help="a crmd bench --json output")
    parser.add_argument("--threshold", type=float, default=0.65,
                        help="--self-check fails when second/first "
                             "slots_per_sec drops below this ratio "
                             "(default: 0.65)")
    parser.add_argument("--check-only", action="store_true",
                        help="validate the JSON shape only; no comparison")
    parser.add_argument("--self-check", metavar="FIRST_RUN",
                        help="blocking same-machine gate: compare against "
                             "FIRST_RUN (an earlier run of the same harness "
                             "in the same job); every FIRST_RUN point must "
                             "be present and within --threshold")
    parser.add_argument("--expect", action="append", default=[],
                        metavar="SUBSTR",
                        help="require >= 1 scenario key containing SUBSTR "
                             "(repeatable; applies in every mode)")
    parser.add_argument("--require-meta", action="append", default=[],
                        metavar="KEY",
                        help="require meta key KEY to be present "
                             "(repeatable; applies in every mode)")
    parser.add_argument("--speedup-over", metavar="REFERENCE",
                        help="blocking same-machine gate: every matching "
                             "row must reach --speedup-factor x the best "
                             "slots_per_sec of REFERENCE")
    parser.add_argument("--speedup-factor", type=float, default=10.0,
                        help="required multiple for --speedup-over "
                             "(default: 10)")
    parser.add_argument("--speedup-match", action="append", default=[],
                        metavar="SUBSTR",
                        help="restrict --speedup-over to scenarios "
                             "containing SUBSTR (repeatable; default: all "
                             "rows)")
    args = parser.parse_args()

    try:
        with open(args.current) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_perf: FAIL: {e}", file=sys.stderr)
        return 1
    if isinstance(doc, dict) and "buckets" in doc:
        if not args.check_only:
            print("check_perf: timeline JSONs only support --check-only",
                  file=sys.stderr)
            return 2
        try:
            n = validate_timeline(args.current, doc)
        except ValueError as e:
            print(f"check_perf: FAIL: {e}", file=sys.stderr)
            return 1
        print(f"check_perf: ok: {args.current} is a valid "
              f"{TIMELINE_SCHEMA} document with {n} bucket(s)")
        return 0

    try:
        meta, current = load_rows(args.current)
        validate_meta(args.current, meta)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_perf: FAIL: {e}", file=sys.stderr)
        return 1

    unmatched = check_expected(args.expect, current)
    if unmatched:
        print(f"check_perf: FAIL: {unmatched} expected sweep point(s) "
              f"missing", file=sys.stderr)
        return 1
    if check_required_meta(args.current, meta, args.require_meta):
        return 1

    if args.speedup_over:
        return run_speedup_gate(args, current)

    if args.check_only:
        print(f"check_perf: ok: {args.current} has {len(current)} sweep "
              f"points, meta keys {sorted(meta)}"
              + (f", {len(args.expect)} expectation(s) matched"
                 if args.expect else ""))
        return 0

    if args.self_check:
        return run_self_check(args, current)
    print("check_perf: need --check-only, --self-check FIRST_RUN or "
          "--speedup-over REFERENCE", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
