#!/usr/bin/env python3
"""Check that the typed slot pipelines make no per-slot protocol calls.

Usage:

    python3 tools/check_inlining.py [--objdump PATH] BINARY

Disassembles BINARY (`objdump -d -C`) and finds `step_slot<P>` of every
registered protocol class P, its `[clone .cold]` parts included. A call or
jump from one of them to `P::on_slot`, `P::on_feedback` or `P::done` means
the compiler kept that per-slot call out of line, so each live job-slot
pays for a call (DESIGN.md §6e). HELPERS names the other calls a pipeline
makes on every job-slot that must inline as well. Each such call is reported,
and the exit status is 1; it is also 1 when a pipeline is missing from the
binary. EXCEPTIONS lists the calls that are out of line on purpose. The
check is meaningful only for an optimized GCC build.
"""

import argparse
import re
import subprocess
import sys

CLASSES = [
    "crmd::core::aligned::AlignedProtocol",
    "crmd::core::punctual::PunctualProtocol",
    "crmd::core::nocd::NocdProtocol",
    "crmd::core::UniformProtocol",
    "crmd::baselines::BebProtocol",
    "crmd::baselines::AlohaProtocol",
    "crmd::baselines::EnergyBebProtocol",
    "crmd::baselines::SawtoothProtocol",
]

PER_SLOT = ("on_slot", "on_feedback", "done")

# Calls a pipeline makes on every job-slot, which must inline into it too:
# every ALIGNED job steps its replica (a no-op for all but the first job of
# a slot when the run shares one), reads its active class, clamped to its
# own, and its own class's completion, and the replica steps its active
# class's estimation; NOCD computes its aging floor in every endgame slot,
# and its pipeline (the fdma_faults workload's) filters every hearing job's
# feedback through the fault injector.
HELPERS = {
    "crmd::core::aligned::AlignedProtocol": (
        "crmd::core::aligned::Tracker::begin_slot",
        "crmd::core::aligned::Tracker::end_slot",
        "crmd::core::aligned::Tracker::active_class",
        "crmd::core::aligned::Tracker::estimating",
        "crmd::core::aligned::Tracker::complete",
        "crmd::core::aligned::AlignedProtocol::own_view",
        "crmd::core::aligned::EstimationState::record",
    ),
    "crmd::core::nocd::NocdProtocol": (
        "crmd::core::nocd_floor_tx_prob",
        "crmd::sim::FaultInjector::perceive",
    ),
}

# Per-slot calls kept out of line: each runs about once per job in
# stream_bursty, where jobs spend most slots parked, so inlining them
# would only grow the pipeline.
EXCEPTIONS = {
    "crmd::baselines::EnergyBebProtocol::on_feedback",
    "crmd::baselines::SawtoothProtocol::on_slot",
}

HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")
BRANCH = re.compile(r"\s(?:call|jmp)q?\s+[0-9a-f]+ <([^>+]*)")


def pipeline_class(symbol):
    """The class P when `symbol` is (a part of) step_slot<P>, else None."""
    for cls in CLASSES:
        if "crmd::sim::step_slot<" + cls + ">(" in symbol:
            return cls
    return None


def scan(lines):
    """(classes whose pipeline was seen, [(pipeline symbol, callee)])."""
    seen = set()
    calls = []
    current = None
    for line in lines:
        header = HEADER.match(line)
        if header:
            symbol = header.group(1)
            current = pipeline_class(symbol)
            if current is not None:
                seen.add(current)
                owner = symbol
            continue
        if current is None:
            continue
        branch = BRANCH.search(line)
        if not branch:
            continue
        callee = branch.group(1).split("(")[0]
        targets = [current + "::" + name for name in PER_SLOT]
        targets.extend(HELPERS.get(current, ()))
        if callee in targets and callee not in EXCEPTIONS:
            calls.append((owner, callee))
    return seen, calls


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binary")
    parser.add_argument("--objdump", default="objdump")
    args = parser.parse_args()
    try:
        out = subprocess.run([args.objdump, "-d", "-C", "--no-show-raw-insn",
                              args.binary], check=True, capture_output=True,
                             text=True).stdout
    except (OSError, subprocess.CalledProcessError) as err:
        print("error: cannot disassemble %s: %s" % (args.binary, err),
              file=sys.stderr)
        return 2
    seen, calls = scan(out.splitlines())
    failed = False
    for cls in CLASSES:
        if cls not in seen:
            print("missing: step_slot<%s> is not in %s" % (cls, args.binary))
            failed = True
    for owner, callee in calls:
        print("out of line: %s calls %s" % (owner, callee))
        failed = True
    if failed:
        return 1
    print("check_inlining: %d pipelines, no per-slot calls" % len(seen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
