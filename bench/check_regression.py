#!/usr/bin/env python3
"""Compare fresh bench JSON against the committed BENCH_* baselines.

Usage:
    check_regression.py COMMITTED FRESH [COMMITTED FRESH ...]

Each pair is two files in the BENCH_* format (bench_sweep/bench_fault/
bench_trace/bench_qos --json output).  Every numeric leaf under the
"current" block is compared pairwise; a relative deviation beyond the
band (default +/-30%, override with --band 0.5) prints a WARNING line.

These files hold kernel-level numbers and the hard gates below.
Serving-path throughput and latency (the engine, the TCP server, the
fleet proxy, simulation over the wire) are compared across commits by
perfbench instead (perfbench/README.md): interactive ok_per_s, p50_us
and p50_alt_us, batch ok_per_s, and the per-layer net.*, wire.*,
service.*, cluster.* and workload.simulate_us figures.

Band deviations are warn-only by design: CI runners are noisy shared
machines and the committed numbers come from a different host, so
deviations are a prompt to look, not a gate.

Floors are a gate.  A committed baseline may carry a "floors" block
mapping dotted "current"-relative paths to hard minimums, e.g.

    "floors": {"sweep_cells_per_s.threads_0": 5e6}

A fresh value below its floor (or a floored metric missing from the
fresh run) prints a FAIL line and the script exits 1.  Floors encode
order-of-magnitude guarantees (the factored sweep must stay >= 18x the
pre-batch scalar baseline), far below host-to-host noise.

Ceilings are the same gate upside down: a "ceilings" block maps dotted
paths to hard maximums, e.g.

    "ceilings": {"disabled_span_ns": 2.0}

A fresh value above its ceiling (or missing) FAILs.  Ceilings encode
cost budgets — the disabled tracing path must never creep past its
per-span budget no matter the host.

Exit code is also 1 when the inputs themselves are unusable (missing
file, malformed JSON, mismatched bench names).  Only stdlib, no
third-party deps.
"""

import argparse
import json
import sys


def numeric_leaves(value, prefix=""):
    """Flatten nested dicts/lists to (dotted-path, number) pairs."""
    if isinstance(value, bool):  # bool is an int subclass; skip it
        return
    if isinstance(value, (int, float)):
        yield prefix, float(value)
    elif isinstance(value, dict):
        for key in value:
            yield from numeric_leaves(value[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from numeric_leaves(item, f"{prefix}[{i}]")


def compare(committed_path, fresh_path, band):
    try:
        with open(committed_path) as f:
            committed = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return None

    name = committed.get("bench", committed_path)
    if committed.get("bench") != fresh.get("bench"):
        print(
            f"ERROR: bench name mismatch: {committed_path} is "
            f"{committed.get('bench')!r}, {fresh_path} is {fresh.get('bench')!r}",
            file=sys.stderr,
        )
        return None

    base = dict(numeric_leaves(committed.get("current", {})))
    new = dict(numeric_leaves(fresh.get("current", {})))
    warnings = 0

    for path in sorted(base):
        if path not in new:
            print(f"WARNING [{name}] {path}: present in baseline, missing in fresh run")
            warnings += 1
            continue
        old_value, new_value = base[path], new[path]
        if old_value == 0:
            if new_value != 0:
                print(f"WARNING [{name}] {path}: baseline 0, now {new_value:g}")
                warnings += 1
            continue
        ratio = new_value / old_value
        if abs(ratio - 1.0) > band:
            print(
                f"WARNING [{name}] {path}: {old_value:g} -> {new_value:g} "
                f"({(ratio - 1.0) * 100.0:+.0f}%, band +/-{band * 100.0:.0f}%)"
            )
            warnings += 1
    for path in sorted(set(new) - set(base)):
        print(f"NOTE [{name}] {path}: new metric, no baseline")

    failures = 0
    floors = committed.get("floors", {})
    for path in sorted(floors):
        floor = float(floors[path])
        if path not in new:
            print(f"FAIL [{name}] {path}: floored at {floor:g} but missing "
                  f"from the fresh run")
            failures += 1
        elif new[path] < floor:
            print(f"FAIL [{name}] {path}: {new[path]:g} below the hard "
                  f"floor {floor:g}")
            failures += 1
    ceilings = committed.get("ceilings", {})
    for path in sorted(ceilings):
        ceiling = float(ceilings[path])
        if path not in new:
            print(f"FAIL [{name}] {path}: capped at {ceiling:g} but missing "
                  f"from the fresh run")
            failures += 1
        elif new[path] > ceiling:
            print(f"FAIL [{name}] {path}: {new[path]:g} above the hard "
                  f"ceiling {ceiling:g}")
            failures += 1

    compared = len(set(base) & set(new))
    print(f"[{name}] compared {compared} metrics, {warnings} outside the "
          f"band, {failures} outside hard floors/ceilings")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="COMMITTED FRESH",
                        help="pairs of baseline and fresh BENCH_*.json files")
    parser.add_argument("--band", type=float, default=0.30,
                        help="allowed relative deviation (default 0.30)")
    args = parser.parse_args()
    if len(args.files) % 2 != 0:
        parser.error("expected pairs of files: COMMITTED FRESH [...]")

    failed = False
    for committed, fresh in zip(args.files[::2], args.files[1::2]):
        result = compare(committed, fresh, args.band)
        if result is None or result > 0:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
