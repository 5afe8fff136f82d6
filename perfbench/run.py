#!/usr/bin/env python3
"""End-to-end benchmark of ftrepair: one data-repair call, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the worker
(perfbench/worker.cc) into .bench_build/, generates the workload from the
seed (see GEN_SEED), and then, for --seconds seconds, repairs it in a fresh
worker process per repair: every CLI invocation pays a cold first repair,
and in-process repeats run 13-19% faster than the first.

  --trace 0  times each repair (ReadCsvString -> Repairer::Repair) with no
             tracing, checks every output, and prints the end-to-end
             metrics.
  --trace 1  runs, in each worker process, an untraced repair to warm
             it, a traced one that calls each module's public functions
             from the worker, and an untraced one to compare with; prints
             the per-layer metrics and the consistency checks between the
             last two.

Prints one "record" line per repair, one "metric" line per metric with its
unit, and a "stamp" line (nproc, load average, build type, seeds); the last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}. Exits non-zero, without that line, when the build or a worker
fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"  # the main build's default
WORKER = BUILD / "perfbench_worker"

# Why each workload is here: see BENCHMARK.json.
WORKLOADS = {
    "tax-greedy": {"dataset": "tax", "rows": 5000, "algorithm": "greedy",
                   "threads": 1},
    "hosp-appro": {"dataset": "hosp", "rows": 20000, "algorithm": "appro",
                   "threads": 1},
    "hosp-greedy-mt": {"dataset": "hosp", "rows": 10000,
                       "algorithm": "greedy", "threads": 4},
}
# The clean table is fixed per workload (the generators' default seeds);
# --seed N draws the 4% noise with seed 42 + N. Greedy-M's running time
# swings by up to 70% between generated tables but by about 10% between
# noise draws on one table, so varying only the noise keeps a run's
# figures comparable across seeds. Seed 0 is the default workload.
GEN_SEED = {"hosp": 7, "tax": 11}
NOISE_SEED = 42

# One batch of setups runs before every repair, so setup_s, their
# median, samples the whole run window: on a shared machine the speed
# drifts from second to second.
MIN_CLEANS = 3  # untraced repairs per --trace 0 run, at least
# A run must end within 180 s; no single repair at these sizes comes
# near this.
WORKER_TIMEOUT_S = 120

E2E_UNITS = {
    "clean_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "f1": "ratio", "precision": "ratio", "recall": "ratio",
    "repair_cost": "cost", "residual_violations": "count",
    "failed_frac": "ratio",
}
# Printed, but kept out of the JSON result, which carries only metrics
# that are never 0: at HEAD both read 0 on every run. A residual
# violation or a failed repair fails the run instead.
ZERO_AT_HEAD = ("residual_violations", "failed_frac")

PER_LAYER_UNITS = {
    "gen.generate_s": "s", "gen.inject_s": "s", "gen.serialize_s": "s",
    "data.ingest_s": "s", "data.distinct_values": "count",
    "constraint.components": "count",
    "constraint.largest_component_fds": "count",
    "detect.count_s": "s", "detect.graph_s": "s", "detect.recount_s": "s",
    "detect.patterns": "count", "detect.edges": "count",
    "detect.candidates_generated": "count",
    "detect.candidates_verified": "count", "detect.edge_yield": "ratio",
    "core.solve_s": "s", "core.targets_s": "s",
    "core.target_nodes_visited": "count",
    "core.target_nodes_pruned": "count", "core.target_prune_ratio": "ratio",
    "core.apply_s": "s", "core.cost_s": "s", "core.cells_changed": "count",
    "common.parallel_utilization": "ratio",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
    "trace.phase_share_dev": "ratio",
}
# Traced layer -> the PhaseTimings field Repair reports for it; the
# stats phase is detect.recount_s + core.cost_s.
PHASE_OF_LAYER = {
    "count_s": "detect", "graph_s": "graph", "solve_s": "solve",
    "targets_s": "targets", "apply_s": "apply",
}
# Each trace job is checked against the untraced repairs just before
# and just after it in the same process (not in separate processes:
# consecutive processes differ by up to 25%). The per-layer trace.*
# metrics compare it with the one after:
#   trace.coverage        the traced layer times add up to the untraced
#                         ingest plus PhaseTimings phases (each summed
#                         over threads, so this holds for concurrent
#                         components too);
#   trace.phase_share_dev each layer's share of the traced wall time
#                         matches its share in the untraced PhaseTimings;
#   trace.overhead_s      the traced wall time minus the untraced
#                         clean_s is within OVERHEAD_BOUND of clean_s.
# Time worth more than a quarter of the repair left out or counted
# twice, or more than a tenth of it booked to the wrong layer, breaks
# these against both untraced repairs of every job. A burst of load from
# other tenants of the machine can break them against one repair (one
# hosp-greedy-mt job read 5.2 s cold, 7.0 s traced, 12.7 s warm), and
# rarely against both: in 38 jobs over the three workloads the nearer
# repair differed by at most 14% in all but one, a tax-greedy job whose
# traced decomposition ran 21% slower than either. So the time bounds
# equal clean_s's bound in BENCHMARK.json, a job passes when it agrees
# with either repair, a run passes when one of its jobs passes, and a
# run whose jobs all fail runs one more while it can still end within
# TRACE_BUDGET_S. Jobs shorter than MIN_TIMED_S are dominated by timer
# resolution and allocator noise and are not cross-checked.
COVERAGE_BOUND = 0.25
SHARE_TOLERANCE = 0.10
OVERHEAD_BOUND = 0.25
TRACE_BUDGET_S = 150
MIN_TIMED_S = 1.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_tool(cmd, "configure")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_tool(["cmake", "--build", str(BUILD), "-j", jobs], "build")


def run_tool(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        if what == "configure":
            shutil.rmtree(BUILD, ignore_errors=True)
        fail(f"{what} failed (exit {proc.returncode})")


def worker(mode, args):
    """Runs one worker job to completion; returns its JSON result."""
    cmd = [str(WORKER), mode]
    for key, value in args.items():
        cmd += ["--" + key, str(value)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        fail(f"worker {mode} ran longer than {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        fail(f"worker {mode} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"worker {mode} printed nothing")
    return json.loads(lines[-1])


def run_until(seconds, minimum, one):
    """Calls one() at least `minimum` times, and again while the next call
    is expected to end within `seconds`; returns what the calls returned."""
    start = time.monotonic()
    results, durations = [], []
    while True:
        t0 = time.monotonic()
        results.append(one())
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if (len(results) >= minimum and
                elapsed + statistics.median(durations) > seconds):
            return results


def metric_line(name, values, unit):
    line = (f"metric {name} = {statistics.median(values):.6g} {unit} "
            f"(median of {len(values)})")
    if len(values) >= 2 and unit == "s":
        q = statistics.quantiles(values, n=4)
        line += f", q1 {q[0]:.6g}, q3 {q[2]:.6g}"
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-tests shrink the table; the benchmark itself never sets it.
    parser.add_argument("--rows", type=int, default=0,
                        help=argparse.SUPPRESS)
    opts = parser.parse_args()

    load_start = os.getloadavg()[0]
    build()

    w = dict(WORKLOADS[opts.workload])
    if opts.rows > 0:
        w["rows"] = opts.rows
    gen_seed = GEN_SEED[w["dataset"]]
    noise_seed = NOISE_SEED + opts.seed
    work = ROOT / ".bench_build" / "work" / f"{opts.workload}-{opts.seed}"
    work.mkdir(parents=True, exist_ok=True)
    data = {"dataset": w["dataset"], "rows": w["rows"], "gen-seed": gen_seed}
    setup = {"setup_s": [], "generate_s": [], "inject_s": [],
             "serialize_s": []}

    def set_up():
        """One batch of setups; also (re)writes the repair's inputs."""
        batch = worker("setup", {**data, "noise-seed": noise_seed,
                                 "dir": work})
        for key, samples in setup.items():
            samples += batch[key]

    job = {**data, "dir": work, "algorithm": w["algorithm"],
           "threads": w["threads"]}
    measure = measure_end_to_end if opts.trace == 0 else measure_layers
    result, records, lines = measure(opts.seconds, job, set_up, setup)

    nproc = len(os.sched_getaffinity(0))
    load_end = os.getloadavg()[0]
    stamp = {
        "workload": opts.workload, "seed": opts.seed, "gen_seed": gen_seed,
        "noise_seed": noise_seed, "nproc": nproc, "build_type": BUILD_TYPE,
        "load1_start": load_start, "load1_end": load_end,
        "load_over_nproc": max(load_start, load_end) > nproc,
    }
    if stamp["load_over_nproc"]:
        log("perfbench: load average exceeded nproc during this run")
    for record in records:
        print("record " + json.dumps({**stamp, **record}, sort_keys=True))
    for line in lines:
        print(line)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def measure_end_to_end(seconds, job, set_up, setup):
    def one():
        set_up()
        return worker("clean", job)

    records = run_until(seconds, MIN_CLEANS, one)
    failed = 0
    for i, r in enumerate(records):
        for m in r["misses"]:
            log(f"perfbench: repair {i} failed its check: {m}")
        failed += not r["ok"]
    # Repairs that returned a result, whether or not it passed the check.
    done = [r for r in records if "f1" in r]
    if not done:
        fail("every repair returned an error")
    # Quality and cost depend only on the input: every repair of one run
    # must agree exactly.
    unsteady = [k for k in ("f1", "precision", "recall", "repair_cost",
                            "cells_changed")
                if any(r[k] != done[0][k] for r in done)]
    for k in unsteady:
        log(f"perfbench: {k} differs between repairs of one input")

    samples = {k: [r[k] for r in done] for k in E2E_UNITS if k in done[0]}
    samples["setup_s"] = setup["setup_s"]
    samples["failed_frac"] = [failed / len(records)]
    lines = [metric_line(name, samples[name], unit)
             for name, unit in E2E_UNITS.items()]
    metrics = {name: {"value": statistics.median(samples[name]),
                      "unit": unit}
               for name, unit in E2E_UNITS.items() if name not in ZERO_AT_HEAD}
    result = {"correct": failed == 0 and not unsteady,
              "attempted": len(records), "failed": failed,
              "metrics": metrics}
    return result, [{"repair": i, **r} for i, r in enumerate(records)], lines


TRACED_LAYERS = ("ingest_s", "count_s", "graph_s", "solve_s", "targets_s",
                 "apply_s", "recount_s", "cost_s")


def agreement(traced, untraced):
    """How a trace job's layer times agree with one untraced repair."""
    p = untraced["phases_s"]
    wall = traced["traced_wall_s"]
    shares = [abs(traced[layer] / wall - p[phase] / p["total"])
              for layer, phase in PHASE_OF_LAYER.items()]
    shares.append(abs((traced["recount_s"] + traced["cost_s"]) / wall -
                      p["stats"] / p["total"]))
    untraced_s = untraced["ingest_s"] + sum(v for k, v in p.items()
                                            if k != "total")
    return {
        "trace.overhead_s": wall - untraced["clean_s"],
        "trace.coverage":
            sum(traced[layer] for layer in TRACED_LAYERS) / untraced_s,
        "trace.phase_share_dev": max(shares),
    }


def layer_values(traced):
    """The per-layer metrics of one trace job, bar gen.*."""
    cold = traced["cold"]
    visited = traced["target_nodes_visited"]
    pruned = traced["target_nodes_pruned"]
    return {
        "data.ingest_s": traced["ingest_s"],
        "data.distinct_values": traced["distinct_values"],
        "constraint.components": traced["components"],
        "constraint.largest_component_fds": traced["largest_component_fds"],
        "detect.count_s": traced["count_s"],
        "detect.graph_s": traced["graph_s"],
        "detect.recount_s": traced["recount_s"],
        "detect.patterns": traced["patterns"],
        "detect.edges": traced["edges"],
        "detect.candidates_generated": traced["candidates_generated"],
        "detect.candidates_verified": traced["candidates_verified"],
        "detect.edge_yield": traced["edges"] /
                             max(1, traced["candidates_verified"]),
        "core.solve_s": traced["solve_s"],
        "core.targets_s": traced["targets_s"],
        "core.target_nodes_visited": visited,
        "core.target_nodes_pruned": pruned,
        "core.target_prune_ratio": pruned / max(1, visited + pruned),
        "core.apply_s": traced["apply_s"],
        "core.cost_s": traced["cost_s"],
        "core.cells_changed": traced["cells_changed"],
        "common.parallel_utilization":
            cold["cpu_s"] / (cold["clean_s"] * cold["threads"]),
        "trace.wall_s": traced["traced_wall_s"],
        **agreement(traced, traced["untraced"]),
    }


def same_work_misses(traced):
    """The traced decomposition must do exactly the untraced repair's work,
    and the cold and warm untraced repairs must agree."""
    clean, cold = traced["untraced"], traced["cold"]
    misses = traced["misses"] + clean["misses"] + cold["misses"]
    for key in ("cells_changed", "repair_cost", "ft_violations_before"):
        if traced[key] != clean[key]:
            misses.append(f"traced {key} {traced[key]} != untraced "
                          f"{clean[key]}")
        if cold[key] != clean[key]:
            misses.append(f"cold {key} {cold[key]} != warm {clean[key]}")
    if traced["ft_violations_after"] != clean["residual_violations"]:
        misses.append("traced residual FT-violations differ")
    return misses


def timing_misses(traced):
    """The timing cross-check of one trace job: its layer times must agree
    with the untraced repair before or the one after it in the same
    process. Returns the misses against each when they agree with
    neither, else an empty list."""
    misses = []
    for name in ("cold", "untraced"):
        untraced = traced[name]
        a = agreement(traced, untraced)
        found = []
        dev = a["trace.phase_share_dev"]
        if dev > SHARE_TOLERANCE:
            found.append(f"a layer's share of the time differs from "
                         f"PhaseTimings by {dev:.3f} > {SHARE_TOLERANCE}")
        coverage = a["trace.coverage"]
        if abs(coverage - 1) > COVERAGE_BOUND:
            found.append(f"trace.coverage {coverage:.3f} is outside "
                         f"1 +- {COVERAGE_BOUND}")
        overhead = a["trace.overhead_s"] / untraced["clean_s"]
        if abs(overhead) > OVERHEAD_BOUND:
            found.append(f"traced wall time differs from the untraced "
                         f"clean_s by {overhead:.3f} of it > {OVERHEAD_BOUND}")
        if not found:
            return []
        misses += [f"vs {name} repair: {m}" for m in found]
    return misses


def check_trace(i, traced):
    """Checks trace job i; returns whether it failed, its per-layer values
    (None when its repair returned an error) and the timing cross-check's
    misses (None when the job was too short to check)."""
    clean = traced.get("untraced", traced["cold"])
    if "phases_s" not in clean:  # a repair returned an error
        log(f"perfbench: trace {i} failed: {clean['misses']}")
        return True, None, None
    misses = same_work_misses(traced)
    for m in misses:
        log(f"perfbench: trace {i} inconsistent: {m}")
    values = layer_values(traced)
    if values["trace.wall_s"] < MIN_TIMED_S:
        return bool(misses), values, None
    timing = timing_misses(traced)
    for m in timing:
        log(f"perfbench: trace {i} timing: {m}")
    return bool(misses), values, timing


def measure_layers(seconds, job, set_up, setup):
    start = time.monotonic()

    def one():
        set_up()
        return worker("trace", job)

    traces = run_until(seconds, 1, one)
    checked = [check_trace(i, t) for i, t in enumerate(traces)]

    def timing():
        return [c[2] for c in checked if c[2] is not None]

    while (timing() and all(timing()) and
           (time.monotonic() - start) * (len(traces) + 1) / len(traces) <
           TRACE_BUDGET_S):
        traces.append(one())
        checked.append(check_trace(len(traces) - 1, traces[-1]))

    samples = {name: [] for name in PER_LAYER_UNITS}
    for key in ("generate_s", "inject_s", "serialize_s"):
        samples["gen." + key] = setup[key]
    for _, values, _ in checked:
        for name, value in (values or {}).items():
            samples[name].append(value)
    if not samples["trace.wall_s"]:
        fail("every untraced repair returned an error")
    lines = [metric_line(name, samples[name], unit)
             for name, unit in PER_LAYER_UNITS.items()]
    passed = sum(not m for m in timing())
    if timing():
        lines.append(f"timing cross-check (phase_share_dev <= "
                     f"{SHARE_TOLERANCE}, |coverage - 1| <= {COVERAGE_BOUND}, "
                     f"|overhead| <= {OVERHEAD_BOUND} of clean_s): "
                     f"{passed} of {len(timing())} jobs passed")
    else:
        lines.append(f"timing cross-check skipped: repairs under "
                     f"{MIN_TIMED_S} s")
    failed = sum(c[0] for c in checked)
    result = {"correct": failed == 0 and (passed > 0 or not timing()),
              "attempted": len(traces), "failed": failed,
              "metrics": {name: {"value": statistics.median(samples[name]),
                                 "unit": unit}
                          for name, unit in PER_LAYER_UNITS.items()}}
    records = [{"trace": i, **t} for i, t in enumerate(traces)]
    return result, records, lines


if __name__ == "__main__":
    main()
