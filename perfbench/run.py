#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-plain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

One run builds the worker (Release, into .bench_build/), then repeats the
workload in fresh worker processes for --seconds seconds and reports
medians over the repetitions. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced repetitions and
prints the per-layer metrics of the traced ones. Every line but the last
is for people; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKER = BUILD_DIR / "perfbench_worker"

# Worker processes that make up one repetition of each workload.
WORKLOADS = {
    "serve-plain": ["serve-plain"],
    "serve-durable": ["serve-durable", "serve-resume"],
    "sweep-grid": ["sweep-grid"],
    "sweep-replicated": ["sweep-replicated"],
}
DEFAULT_SEED = 1
MIN_REPS = 3
# A run, build excluded, ends well inside three minutes.
RUN_BUDGET_S = 165.0
BUILD_TIMEOUT_S = 850.0
# Calibration drift beyond this share (the wall_s bound) voids a set of
# repetitions. Smaller drift is routine on a shared VM: twenty idle
# calibrations within 20 s ranged over +-12% of their mean.
CALIBRATION_TOLERANCE = 0.25
ALIAS_UNITS = {"requests_per_s": "1/s", "tasks_per_s": "1/s", "resume_s": "s"}
LAYERS = ["core", "synth", "engine", "store", "sim", "churn"]
MIB = float(1 << 20)


class BenchError(Exception):
    """A failure that stops the run without a result."""


def log(msg):
    print(msg, flush=True)


def warn(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configures (once) and builds the worker; refuses non-Release."""
    OUT_DIR.mkdir(exist_ok=True)
    log_path = OUT_DIR / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench_worker"])
    with open(log_path, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=ROOT, timeout=max(1.0, deadline - time.monotonic())
                                    ).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-15:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    cache = (BUILD_DIR / "CMakeCache.txt").read_text(errors="replace")
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        raise BenchError("build directory is not a Release build; remove "
                         f"{BUILD_DIR} and rerun")


def worker(args, timeout):
    """Runs one worker process; returns its JSON object."""
    cmd = [str(WORKER)] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {args[1]} timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[1]} exited {proc.returncode}: "
                           + proc.stderr.strip()[-400:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {args[1]} printed nothing")
    return json.loads(lines[-1])


# ------------------------------------------------------------- provenance

def source_digest():
    """sha256 over the library sources the worker links (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (checkpoint directory)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            if len(fields) >= 3:
                mount = fields[1]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def thread_count():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return nproc, min(4, nproc)


def provenance(threads, nproc):
    described = worker(["--workload", "describe", "--seed", 0], 60)
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": described["build_type"],
        "nproc": nproc,
        "threads": threads,
        "cpu_model": cpu_model(),
        "cpu_features": described["cpu_features"],
        "backend_arm": described["backend_arm"],
        "checkpoint_fs": filesystem_of(OUT_DIR),
    }


def calibrate():
    return worker(["--workload", "calibrate", "--seed", 12345], 60)["calibrate_s"]


# ----------------------------------------------------------- correctness

def load_pins():
    path = BENCH_DIR / "pinned_digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def pinned_digest(size, workload, seed, override):
    if override is not None and seed == DEFAULT_SEED:
        return override
    return load_pins().get(size, {}).get(workload, {}).get(str(seed))


def check_rep(phases, reference, pin):
    """Returns None for a correct repetition, else the reason it failed."""
    digests = [p["digest"] for p in phases]
    if not all(p.get("conserved") for p in phases):
        return "a conservation identity does not hold"
    if len(set(digests)) != 1:
        return f"resumed outcome {digests[1]} differs from the uninterrupted {digests[0]}"
    if reference is not None and digests[0] != reference:
        return f"digest {digests[0]} differs from this seed's first run {reference}"
    if pin is not None and digests[0] != pin:
        return f"digest {digests[0]} differs from the pinned {pin}"
    return None


# -------------------------------------------------------------- analysis

def dur(span):
    return span["end"] - span["start"]


def union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(lo, a), min(hi, b)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Wall seconds attributed to each layer, plus "uncovered" (time in the
    root span no layer span covers). A main-thread span's self time is its
    duration minus the part its children cover. Inside a span whose
    children ran on a thread pool, the wall time those children cover is
    split across layers in proportion to their busy self time."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = defaultdict(float)

    def layer(span):
        return "uncovered" if span["parent"] < 0 else span["name"].split(".")[0]

    def busy(span, acc):
        kids = children[span["id"]]
        acc[layer(span)] += dur(span) - union_length(
            [(k["start"], k["end"]) for k in kids], span["start"], span["end"])
        for k in kids:
            busy(k, acc)

    def visit(span):
        kids = children[span["id"]]
        main = [k for k in kids if not k["worker"]]
        pool = [k for k in kids if k["worker"]]
        lo, hi = span["start"], span["end"]
        covered_pool = union_length([(k["start"], k["end"]) for k in pool], lo, hi)
        covered = union_length([(k["start"], k["end"]) for k in kids], lo, hi)
        out[layer(span)] += dur(span) - covered
        for k in main:
            visit(k)
        if pool:
            acc = defaultdict(float)
            for k in pool:
                busy(k, acc)
            total = sum(acc.values())
            for name, b in acc.items():
                out[name] += covered_pool * b / total if total > 0 else 0.0

    for root in children[-1]:
        visit(root)
    return out


def layer_metrics(processes, untraced_wall):
    """Per-layer metrics of one traced repetition. `processes` holds
    (worker JSON, spans) for each process of the repetition."""
    spans = [s for _, ss in processes for s in ss]
    first = processes[0][0]

    def total(name):
        return sum(dur(s) for s in spans if s["name"] == name)

    m = {}
    m["core.generate_batch_s"] = total("core.generate_batch")
    m["synth.finish_host_s"] = total("synth.finish_host")
    m["engine.shard_build_s"] = total("engine.shard_build")
    m["engine.drain_s"] = total("engine.drain")

    # Shard busy time per shard; barrier wait per drain phase.
    shard_busy = defaultdict(float)
    barrier = 0.0
    # Shard balance and busy rate describe the run that served the
    # contacts (the resume of serve-durable re-serves only its last days).
    for p, (_, ss) in enumerate(processes):
        by_phase = defaultdict(list)
        for s in ss:
            if s["name"] == "engine.shard_drain":
                by_phase[s["parent"]].append(dur(s))
                if p == 0:
                    shard_busy[s["index"]] += dur(s)
        for times in by_phase.values():
            barrier += sum(max(times) - t for t in times)
    busy = list(shard_busy.values())
    contacts_busy = sum(busy)
    m["engine.shard_drain_s.max"] = max(busy) if busy else 0.0
    m["engine.shard_imbalance"] = max(busy) / statistics.mean(busy) if busy else 0.0
    serve = first["workload"].startswith("serve")
    m["engine.contacts"] = first["work"] if serve else 0
    m["engine.contacts_per_busy_s"] = first["work"] / contacts_busy if contacts_busy else 0.0
    m["engine.barrier_wait_s"] = barrier

    m["engine.quorum_apply_s"] = total("engine.quorum_apply")
    m["engine.day_records"] = first.get("day_records", 0)
    issued = first.get("quorum_tasks_issued", 0)
    m["engine.quorum_yield"] = first.get("quorum_tasks_validated", 0) / issued if issued else 0.0

    write_s = total("engine.checkpoint_write")
    epochs = first.get("checkpoints", 0)
    written = first.get("checkpoint_bytes", 0)
    m["engine.checkpoint_write_s"] = write_s
    m["engine.checkpoint_epochs"] = epochs
    m["engine.checkpoint_bytes"] = written / epochs if epochs else 0
    m["engine.checkpoint_mb_per_s"] = written / MIB / write_s if write_s else 0.0

    verify_s = total("store.verify")
    file_bytes = sum(p.get("checkpoint_file_bytes", 0) for p, _ in processes)
    m["store.verify_s"] = verify_s
    m["store.verify_mb_per_s"] = file_bytes / MIB / verify_s if verify_s else 0.0
    m["engine.resume_load_s"] = total("engine.resume_load")
    m["engine.resume_s"] = processes[1][0]["wall_s"] if len(processes) > 1 else 0.0
    m["engine.fold_s"] = total("engine.fold")

    m["sim.synthesize_s"] = total("sim.synthesize")
    m["sim.host_rates_s"] = total("sim.host_rates")
    m["sim.availability_s"] = total("sim.availability")
    m["sim.ect_s"] = total("sim.ect")
    m["sim.pull_s"] = total("sim.pull")
    m["churn.run_s"] = total("churn.run")
    churn_tasks = first.get("churn_tasks", 0)
    m["churn.swept_blocks_per_task"] = (
        first.get("churn_swept_blocks", 0) / churn_tasks if churn_tasks else 0.0)
    m["churn.resolved_lanes_per_task"] = (
        first.get("churn_resolved_lanes", 0) / churn_tasks if churn_tasks else 0.0)

    cells = [s for s in spans if s["name"] == "sim.cell"]
    cell_times = [dur(s) for s in cells]
    m["sim.cell_s.max"] = max(cell_times) if cell_times else 0.0
    m["sim.cell_imbalance"] = (
        max(cell_times) / statistics.mean(cell_times) if cell_times else 0.0)
    replicated = first["workload"] == "sweep-replicated"
    for label in ("ect", "churn_checkpoint"):
        m[f"sim.replicated_cell_s.{label}"] = sum(
            dur(s) for s in cells if replicated and s["label"] == label)
    m["sim.reissues"] = first.get("reissues", 0)
    replicas = first.get("replicas_issued", 0)
    m["sim.replica_yield"] = (
        first.get("tasks_validated", 0) * first.get("quorum", 0) / replicas
        if replicas else 0.0)

    selfs = defaultdict(float)
    for _, ss in processes:
        for name, t in self_times(ss).items():
            selfs[name] += t
    for name in LAYERS:
        m[f"{name}.self_s"] = selfs[name]
    m["uncovered_s"] = selfs["uncovered"]
    traced_wall = sum(p["wall_s"] for p, _ in processes)
    m["traced_wall_s"] = traced_wall
    m["trace_overhead_s"] = traced_wall - untraced_wall
    return m


# ------------------------------------------------------------------- run

def run_once(workload, seed, size, threads, trace, timeout):
    """One repetition: the workload's worker processes in order. Returns
    [(worker JSON, spans or None)]; removes the checkpoint it leaves."""
    results = []
    try:
        for phase in WORKLOADS[workload]:
            args = ["--workload", phase, "--seed", seed, "--size", size,
                    "--threads", threads, "--trace", int(trace), "--dir", OUT_DIR]
            start = time.monotonic()
            out = worker(args, timeout)
            timeout -= time.monotonic() - start
            spans = None
            if trace:
                spans_path = ROOT / out["spans_file"]
                spans = json.loads(spans_path.read_text())["spans"]
                spans_path.unlink()
            results.append((out, spans))
    finally:
        for leftover in OUT_DIR.glob(f"serve-durable-seed{seed}.ckpt*"):
            leftover.unlink()
    return results


def phase_sum(rep, key):
    return sum(out.get(key, 0.0) for out, _ in rep)


def recomposition_gaps(untraced, traced):
    """Relative gaps between the traced re-composition and the library
    calls, median against median: the repetition's wall time and, on
    serve-*, the drain phase EngineResult::wall_seconds covers."""
    gaps = {}
    for key in ("wall_s", "drain_phase_s"):
        base = statistics.median(phase_sum(rep, key) for rep in untraced)
        if base > 0:
            gaps[key] = statistics.median(
                phase_sum(rep, key) for rep in traced) / base - 1.0
    return gaps


def measure_set(workload, seed, seconds, trace, size, threads, pin, budget_end):
    """One set of repetitions for `seconds`, between two calibrations."""
    calib_start = calibrate()
    started = time.monotonic()
    reference = None
    untraced, traced, failures, rejected = [], [], [], []
    attempted = 0
    while True:
        elapsed = time.monotonic() - started
        reps = len(untraced) + len(traced) + len(failures)
        # Stop before a repetition that would run past --seconds (or the
        # run's hard budget), once the minimum is in.
        next_end = elapsed + (elapsed / reps if reps else 0.0)
        if reps >= MIN_REPS and next_end > seconds:
            break
        if reps > 0 and started + next_end > budget_end - 5:
            break
        # Trace mode alternates untraced and traced repetitions, so both
        # get a median and the overhead is measured. A traced repetition
        # runs only once an untraced one has set the reference digest.
        traced_rep = trace and reference is not None and reps % 2 == 1
        attempted += 1
        try:
            rep = run_once(workload, seed, size, threads, traced_rep,
                           budget_end - time.monotonic())
        except (RuntimeError, ValueError, OSError, KeyError) as e:
            failures.append(str(e))
            warn(f"repetition {attempted}: failed: {e}")
            continue
        phases = [out for out, _ in rep]
        reason = check_rep(phases, reference, pin)
        if reason is not None:
            failures.append(reason)
            warn(f"repetition {attempted}: failed: {reason}")
            rejected.append((traced_rep, rep))
            continue
        if reference is None:
            reference = phases[0]["digest"]
        (traced if traced_rep else untraced).append(rep)
    calib_end = calibrate()
    traced_passed = len(traced)

    # With no correct repetition, report what the incorrect ones measured
    # (the verdict says they failed); with none completed, there is nothing.
    if not untraced:
        untraced = [rep for t, rep in rejected if not t]
    if trace and not traced:
        traced = [rep for t, rep in rejected if t]
    if not untraced or (trace and not traced):
        raise BenchError("no repetition completed: " + "; ".join(failures[:3]))
    return {
        "untraced": untraced, "traced": traced, "failures": failures,
        "traced_passed": traced_passed, "attempted": attempted, "reference": reference,
        "calibrate_start_s": calib_start, "calibrate_end_s": calib_end,
        "drift": calib_end / calib_start - 1.0,
        "set_s": time.monotonic() - started,
    }


def measure(workload, seed, seconds, trace, size, pin_override=None):
    """Repeats the workload for `seconds`; returns the run's summary."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload '{workload}'")
    wall_bound = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}["wall_s"]
    build()
    nproc, threads = thread_count()
    prov = provenance(threads, nproc)
    budget_end = time.monotonic() + RUN_BUDGET_S
    pin = pinned_digest(size, workload, seed, pin_override)

    # A set measured while the machine's speed drifted is measured again;
    # if that one drifts too, or there is no time left, the run is refused.
    for attempt in (1, 2):
        s = measure_set(workload, seed, seconds, trace, size, threads, pin,
                        budget_end)
        if abs(s["drift"]) <= CALIBRATION_TOLERANCE:
            break
        drifted = (f"calibration drifted {s['drift']:+.1%} during the set of "
                   "repetitions; the machine's speed changed while measuring")
        if attempt == 2 or time.monotonic() + s["set_s"] + 5 > budget_end:
            raise BenchError(drifted + "; no result")
        warn(f"warning: {drifted}; measuring the set again")
    untraced, traced, failures = s["untraced"], s["traced"], s["failures"]

    # The traced re-composition must do the library's work in the
    # library's time; a gap beyond the wall_s bound means worker.cpp no
    # longer mirrors run_service_engine / run_policy_sweep. (Smoke-size
    # repetitions are too short to time.)
    gaps = recomposition_gaps(untraced, traced) if trace and size == "full" else {}
    off = [f"{key} {gap:+.1%}" for key, gap in gaps.items() if abs(gap) > wall_bound]
    if off:
        failures += [f"traced {', '.join(off)} off the untraced median; the "
                     "re-composition no longer matches the library"] * s["traced_passed"]

    prov.update({
        "calibrate_start_s": s["calibrate_start_s"],
        "calibrate_end_s": s["calibrate_end_s"],
        "calibration_drift": s["drift"],
        "measured_sets": attempt,
        "recomposition_gaps": gaps,
        "digest": s["reference"],
        "pinned_digest": pin,
    })
    attempted = s["attempted"]

    walls = [phase_sum(rep, "wall_s") for rep in untraced]
    wall_median = statistics.median(walls)
    summary = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "provenance": prov, "reps_untraced": len(untraced),
        "reps_traced": len(traced), "untraced_walls": walls,
    }
    if not trace:
        summary["end_to_end"] = {
            "wall_s": wall_median,
            "setup_s": statistics.median(rep[0][0]["setup_s"] for rep in untraced),
            "throughput_per_s": statistics.median(
                rep[0][0]["work"] / w for rep, w in zip(untraced, walls)),
            "peak_rss_mb": statistics.median(
                max(out["peak_rss_mb"] for out, _ in rep) for rep in untraced),
        }
        # The names the metrics go by on each workload family.
        extra = {}
        if workload.startswith("serve"):
            extra["requests_per_s"] = summary["end_to_end"]["throughput_per_s"]
        else:
            extra["tasks_per_s"] = summary["end_to_end"]["throughput_per_s"]
        if workload == "serve-durable":
            extra["resume_s"] = statistics.median(rep[1][0]["wall_s"] for rep in untraced)
        summary["aliases"] = extra
    else:
        per_rep = [layer_metrics(rep, wall_median) for rep in traced]
        summary["per_layer"] = {
            name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    return summary


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(summary, spec):
    """The result line: every metric BENCHMARK.json lists, with its unit."""
    trace = summary["trace"]
    values = summary["per_layer" if trace else "end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units(spec, trace).items()}
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def report(summary, spec):
    prov = summary["provenance"]
    log(f"workload {summary['workload']}  seed {summary['seed']}  size {summary['size']}  "
        f"trace {int(summary['trace'])}  repetitions {summary['reps_untraced']} untraced"
        f" + {summary['reps_traced']} traced")
    log("provenance " + json.dumps(prov, sort_keys=True))
    for reason in sorted(set(summary["failures"])):
        warn(f"failed: {reason}")
    values = summary["per_layer" if summary["trace"] else "end_to_end"]
    for name, unit in units(spec, summary["trace"]).items():
        log(f"  {name:36s} {values[name]:>16.6g} {unit}")
    for name, value in summary.get("aliases", {}).items():
        log(f"  {name:36s} {value:>16.6g} {ALIAS_UNITS[name]}")
    error_rate = summary["failed"] / summary["attempted"]
    log(f"  {'error_rate':36s} {error_rate:>16.6g} fraction "
        f"({summary['failed']} of {summary['attempted']} repetitions failed)")
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{summary['workload']}-seed{summary['seed']}-trace{int(summary['trace'])}.json"
    (results / name).write_text(json.dumps(summary, indent=1, sort_keys=True))


# -------------------------------------------------------------- self-test

def self_test():
    """Smoke-size run of every workload in both modes: every metric of
    BENCHMARK.json is emitted with its unit, every run (traced ones
    included) is correct, and a wrong pinned digest turns into a failed
    repetition."""
    spec = benchmark_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            found = []
            summary = measure(workload, DEFAULT_SEED, 0, trace, "smoke")
            expected = units(spec, trace)
            values = summary["per_layer" if trace else "end_to_end"]
            missing = sorted(set(expected) - set(values))
            if missing:
                found.append("missing metrics " + ", ".join(missing))
            else:
                line = result_line(summary, spec)
                for name, metric in line["metrics"].items():
                    if metric["unit"] != expected[name] or \
                            not isinstance(metric["value"], (int, float)):
                        found.append(f"{name} lacks a value or unit")
                if not line["correct"]:
                    found.append("; ".join(summary["failures"]))
            where = f"{workload} trace={int(trace)}"
            log(f"self-test: {where} " + ("ok" if not found else "; ".join(found)))
            problems += [f"{where}: {f}" for f in found]
    wrong = measure("serve-plain", DEFAULT_SEED, 0, False, "smoke",
                    pin_override="0" * 16)
    if wrong["failed"] == 0:
        problems.append("a wrong pinned digest did not fail the run")
    else:
        log(f"self-test: wrong pinned digest gives error_rate "
            f"{wrong['failed'] / wrong['attempted']:.2f}")
    for p in problems:
        warn("self-test: " + p)
    log("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        spec = benchmark_spec()
        summary = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), "full")
        report(summary, spec)
        print(json.dumps(result_line(summary, spec)), flush=True)
        return 0
    except BenchError as e:
        warn(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
