#!/usr/bin/env python3
"""Enforce the substrate performance floors from a BENCH_substrate.json.

Four gates, all measured on the same machine in the same process so they
are robust to runner speed:
  - the calendar queue must beat the seed binary-heap queue by at least
    --min-speedup on the hot small-delay scheduling path;
  - scheduling and packet flights must be allocation-free in steady state:
    each of the calendar_chain, calendar_wide_chain, calendar_mixed_horizon
    and noc_stream benches may average at most --max-allocs-per-event heap
    allocations;
  - a whole-machine run must do no heap work per simulated event:
    machine_allocs_per_event (the worst `machine:*` row) may be at most
    --max-machine-allocs-per-event;
  - lowering must do no heap work per iteration: lower_allocs_per_instr (the
    worst `lower:*` row's allocations per emitted instruction) may be at most
    --max-lower-allocs-per-instr.

Usage: check_substrate_perf.py BENCH_substrate.json
           [--min-speedup=2.0] [--max-allocs-per-event=0.01]
           [--max-machine-allocs-per-event=0.002]
           [--max-lower-allocs-per-instr=0.05]
Exit: 0 within floors, 1 floor violated, 2 usage/parse errors (a report
that lacks a gated row or key is a usage error).
"""

import json
import sys

# Rows held to --max-allocs-per-event.
ALLOC_FREE_ROWS = ("calendar_chain", "calendar_wide_chain", "calendar_mixed_horizon",
                   "noc_stream")


def main(argv):
    path = None
    min_speedup = 2.0
    max_allocs = 0.01
    max_machine_allocs = 0.002
    max_lower_allocs = 0.05
    for arg in argv[1:]:
        if arg.startswith("--min-speedup="):
            min_speedup = float(arg.split("=", 1)[1])
        elif arg.startswith("--max-allocs-per-event="):
            max_allocs = float(arg.split("=", 1)[1])
        elif arg.startswith("--max-machine-allocs-per-event="):
            max_machine_allocs = float(arg.split("=", 1)[1])
        elif arg.startswith("--max-lower-allocs-per-instr="):
            max_lower_allocs = float(arg.split("=", 1)[1])
        elif arg.startswith("--"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            path = arg
    if path is None:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_substrate_perf: cannot read {path}: {e}", file=sys.stderr)
        return 2

    benches = {b["name"]: b for b in report.get("benches", [])}
    missing = [n for n in ("legacy_chain",) + ALLOC_FREE_ROWS if n not in benches]
    if missing:
        print(f"check_substrate_perf: report lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    if ("machine_allocs_per_event" not in report or
            not any(n.startswith("machine:") for n in benches)):
        print("check_substrate_perf: report lacks machine_allocs_per_event or "
              "machine:* rows", file=sys.stderr)
        return 2
    if "lower_allocs_per_instr" not in report:
        print("check_substrate_perf: report lacks lower_allocs_per_instr",
              file=sys.stderr)
        return 2

    speedup = report.get("speedup_vs_legacy", 0.0)
    machine_allocs = report["machine_allocs_per_event"]
    lower_allocs = report["lower_allocs_per_instr"]

    ok = True
    if speedup < min_speedup:
        print(f"FAIL speedup_vs_legacy = {speedup:.2f}x < floor {min_speedup:.2f}x",
              file=sys.stderr)
        ok = False
    else:
        print(f"ok   speedup_vs_legacy = {speedup:.2f}x (floor {min_speedup:.2f}x)")
    for name in ALLOC_FREE_ROWS:
        allocs = benches[name]["allocs_per_event"]
        if allocs > max_allocs:
            print(f"FAIL {name} allocs/event = {allocs:.6f} > "
                  f"ceiling {max_allocs}", file=sys.stderr)
            ok = False
        else:
            print(f"ok   {name} allocs/event = {allocs:.6f} "
                  f"(ceiling {max_allocs})")
    if machine_allocs > max_machine_allocs:
        print(f"FAIL machine allocs/event = {machine_allocs:.6f} > "
              f"ceiling {max_machine_allocs}", file=sys.stderr)
        ok = False
    else:
        print(f"ok   machine allocs/event = {machine_allocs:.6f} "
              f"(ceiling {max_machine_allocs})")
    if lower_allocs > max_lower_allocs:
        print(f"FAIL lower allocs/instr = {lower_allocs:.6f} > "
              f"ceiling {max_lower_allocs}", file=sys.stderr)
        ok = False
    else:
        print(f"ok   lower allocs/instr = {lower_allocs:.6f} "
              f"(ceiling {max_lower_allocs})")

    for row in report.get("benches", []):
        print(f"     {row['name']:<28} {row['events_per_sec'] / 1e6:8.2f} Mev/s "
              f"{row['ns_per_event']:8.2f} ns/event "
              f"{row['allocs_per_event']:10.6f} allocs/event")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
