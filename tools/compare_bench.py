#!/usr/bin/env python3
"""Diff two google-benchmark JSON files and flag regressions.

    tools/compare_bench.py BASELINE.json NEW.json [options]
    tools/compare_bench.py bench_results/ NEW.json [options]

BASELINE may be a results directory (e.g. bench_results/): it resolves
through the LATEST pointer file when present, otherwise the newest
parseable BENCH_*.json by mtime. Corrupt non-target files encountered
during that scan — including a stale LATEST pointee — are warned about
and skipped, never fatal; only the file finally chosen (or an
explicitly named one) must parse. Tombstoned ``*.corrupt`` files are
ignored entirely.

Compares every benchmark present in BOTH files. By default the compared
metrics are real_time plus every numeric per-benchmark counter the two
entries share; --counters restricts the comparison to the named metrics
only. Rates — metrics whose names end in ``_per_second``, such as the
items_per_second and bytes_per_second google-benchmark derives — are
higher-is-better: one has REGRESSED when new < old / (1 + threshold).
Every other exported metric (times, swept blocks, resolved lanes,
makespans, outcome counters) is higher-is-worse and has REGRESSED when
new > old * (1 + threshold). Either way, a metric recorded as 0 must
stay exactly 0. Exit status: 0 clean, 1 regressions found, 2 usage /
input error.

CI note: wall times are only comparable on the same box. The Release CI
smoke therefore diffs the DETERMINISTIC counters only (e.g.
--counters swept_blocks_per_task,resolved_lanes_per_task,makespan_days),
which are a pure function of the kernel's inputs and catch pruning or
scheduling regressions on any machine; time comparisons are for
bench_results/BENCH_*.json pairs recorded on one host.
"""

import argparse
import json
import os
import sys

# Per-benchmark JSON fields that are bookkeeping, never metrics.
NON_METRIC_FIELDS = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "time_unit", "family_index",
    "per_family_instance_index", "label", "aggregate_name", "aggregate_unit",
}


def fail(message):
    """Usage / input error: print and exit 2, as the module doc promises.

    (sys.exit(str) would exit 1, conflating input errors with genuine
    regressions — CI gates tell the two apart by status code.)
    """
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def try_load_benchmarks(path):
    """Parse one benchmark JSON file; return (table, error_string)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, f"cannot read '{path}': {e}"
    table = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        table[bench["name"]] = bench
    if not table:
        return None, f"no benchmarks in '{path}'"
    return table, None


def load_benchmarks(path):
    table, error = try_load_benchmarks(path)
    if table is None:
        fail(error)
    return table


def resolve_baseline_dir(directory):
    """Pick the baseline record inside a bench_results-style directory.

    LATEST wins when it points at a parseable file; otherwise fall back
    to the newest parseable BENCH_*.json by mtime. Corrupt files along
    the way (non-targets) are warn-and-skip — only a directory with no
    usable record at all is fatal. ``*.corrupt`` tombstones are never
    candidates.
    """
    latest_pointer = os.path.join(directory, "LATEST")
    if os.path.isfile(latest_pointer):
        with open(latest_pointer) as f:
            name = f.read().strip()
        pointee = os.path.join(directory, name)
        if not name or not os.path.isfile(pointee):
            # Dangling pointer (names a file that no longer exists, e.g.
            # after a manual prune) — distinct from a corrupt pointee so
            # the warning says what actually happened.
            print(f"warning: LATEST points at nonexistent file "
                  f"'{name or '<empty>'}'; falling back to newest "
                  "parseable record", file=sys.stderr)
        else:
            table, error = try_load_benchmarks(pointee)
            if table is not None:
                return pointee, table
            print(f"warning: LATEST pointee skipped: {error}",
                  file=sys.stderr)

    candidates = sorted(
        (entry.path for entry in os.scandir(directory)
         if entry.is_file() and entry.name.startswith("BENCH_")
         and entry.name.endswith(".json")),
        key=os.path.getmtime, reverse=True)
    skipped = 0
    for candidate in candidates:
        table, error = try_load_benchmarks(candidate)
        if table is not None:
            return candidate, table
        skipped += 1
        print(f"warning: skipped corrupt '{candidate}': {error}",
              file=sys.stderr)
    # Zero parseable records is an input error, not a clean run: exit 2
    # with an unambiguous message so a CI gate pointed at an empty or
    # fully corrupt baseline directory fails loudly instead of passing.
    if skipped:
        fail(f"baseline directory '{directory}' has {skipped} BENCH_*.json "
             "record(s) but none parse — every candidate was corrupt")
    fail(f"baseline directory '{directory}' contains no BENCH_*.json "
         "records at all")


def higher_is_better(metric):
    """Rates (``*_per_second``) improve upward; everything else downward."""
    return metric.endswith("_per_second")


def within_threshold(metric, old_value, new_value, threshold):
    """True unless `new_value` is worse than `old_value` by > threshold."""
    if old_value == 0:
        return new_value == 0
    if higher_is_better(metric):
        return new_value >= old_value / (1.0 + threshold)
    return new_value <= old_value * (1.0 + threshold)


def numeric_metrics(entry):
    return {
        key: value
        for key, value in entry.items()
        if key not in NON_METRIC_FIELDS and isinstance(value, (int, float))
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "baseline",
        help="baseline BENCH_*.json, or a results directory resolved "
             "via LATEST / newest parseable record")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative regression threshold (default 0.10 = 10%% worse)")
    parser.add_argument(
        "--counters", default=None,
        help="comma-separated metric names to compare (default: real_time "
             "plus all shared numeric counters)")
    parser.add_argument(
        "--require-all", action="store_true",
        help="error out when a baseline benchmark is missing from NEW "
             "(default: warn and skip — CI smokes exclude the 100k points)")
    args = parser.parse_args()
    if args.threshold <= 0:
        fail("--threshold must be positive")
    named = ([c for c in args.counters.split(",") if c]
             if args.counters is not None else None)
    if named is not None and not named:
        fail("empty --counters list")

    if os.path.isdir(args.baseline):
        baseline_path, old_table = resolve_baseline_dir(args.baseline)
        print(f"baseline: {baseline_path}")
    else:
        old_table = load_benchmarks(args.baseline)
    new_table = load_benchmarks(args.new)

    regressions = []
    compared = 0
    missing = []
    for name, old in sorted(old_table.items()):
        new = new_table.get(name)
        if new is None:
            missing.append(name)
            continue
        old_metrics = numeric_metrics(old)
        new_metrics = numeric_metrics(new)
        metrics = named if named is not None else sorted(
            set(old_metrics) & set(new_metrics))
        for metric in metrics:
            if metric not in old_metrics or metric not in new_metrics:
                continue  # named counter not exported by this benchmark
            old_value = old_metrics[metric]
            new_value = new_metrics[metric]
            compared += 1
            ok = within_threshold(metric, old_value, new_value,
                                  args.threshold)
            if old_value == 0:
                ratio = 1.0 if ok else float("inf")
            else:
                ratio = new_value / old_value
            status = "ok" if ok else "REGRESSED"
            print(f"{name:60s} {metric:28s} {old_value:14.4f} -> "
                  f"{new_value:14.4f}  ({ratio:6.3f}x)  {status}")
            if not ok:
                regressions.append((name, metric, old_value, new_value))

    for name in missing:
        print(f"warning: '{name}' missing from {args.new}; skipped",
              file=sys.stderr)
    if missing and args.require_all:
        fail(f"{len(missing)} baseline benchmark(s) missing "
             "and --require-all set")
    if compared == 0:
        fail("no shared metrics to compare")

    if regressions:
        print(f"\n{len(regressions)} regression(s) worse by over "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, metric, old_value, new_value in regressions:
            print(f"  {name} {metric}: {old_value:.4f} -> {new_value:.4f}",
                  file=sys.stderr)
        return 1
    print(f"\nall {compared} compared metrics within {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
