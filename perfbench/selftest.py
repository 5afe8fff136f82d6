#!/usr/bin/env python3
"""Self-tests of the benchmark, at tiny table sizes (about a minute after
the build).

    python3 perfbench/selftest.py

Shows that
  * the output check is not vacuous: a repaired table with one cell set to
    a value absent from its column, or with one residual FT-violation, is
    reported as failed, while the untouched output passes;
  * the traced run's timing cross-check is not vacuous: it passes a
    consistent trace and fails one with a layer time left out, doubled,
    or booked to the wrong layer;
  * run.py prints one metric line per named metric, in both modes, and its
    result line carries exactly the metrics BENCHMARK.json names;
  * every record run.py prints is stamped with nproc, the load average at
    start and end, the build type and the seeds;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exits non-zero when any of these does not hold.
"""

import json
import re
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_ROWS = {"tax-greedy": 300, "hosp-appro": 400, "hosp-greedy-mt": 400}
STAMP_KEYS = {"nproc", "load1_start", "load1_end", "load_over_nproc",
              "build_type", "seed", "gen_seed", "noise_seed"}
FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def check_is_not_vacuous():
    work = run.ROOT / ".bench_build" / "selftest" / "check"
    work.mkdir(parents=True, exist_ok=True)
    data = {"dataset": "hosp", "rows": 400, "gen-seed": 7}
    run.worker("setup", {**data, "noise-seed": 42, "dir": work})
    job = {**data, "dir": work, "algorithm": "greedy", "threads": 1}
    clean = run.worker("clean", job)
    expect(clean["ok"] and clean["cells_changed"] > 0,
           "untouched output passes the check")
    for kind, needle in (("absent", "absent from their column"),
                         ("residual", "FT-violations remain")):
        record = run.worker("clean", {**job, "corrupt": kind})
        expect(not record["ok"] and
               any(needle in m for m in record["misses"]),
               f"corrupt={kind} fails the check with '{needle}'")


def consistent_trace():
    """A trace job's output as the worker prints it, shaped like a
    hosp-appro repair, whose layer times agree with the untraced ones."""
    layers = {"ingest_s": 0.1, "count_s": 1.7, "graph_s": 1.7,
              "solve_s": 0.005, "targets_s": 2.0, "apply_s": 0.05,
              "recount_s": 0.3, "cost_s": 0.05}
    phases = {"detect": 1.7, "graph": 1.7, "solve": 0.005, "targets": 2.0,
              "apply": 0.05, "stats": 0.35, "total": 5.85}
    counts = {"distinct_values": 1, "components": 1,
              "largest_component_fds": 1, "patterns": 1, "edges": 1,
              "candidates_generated": 1, "candidates_verified": 1,
              "target_nodes_visited": 1, "target_nodes_pruned": 1,
              "cells_changed": 1}
    untraced = {"ingest_s": 0.1, "clean_s": 5.95, "phases_s": phases}
    return {**layers, **counts, "traced_wall_s": 5.95, "untraced": untraced,
            "cold": {**untraced, "cpu_s": 5.95, "threads": 1}}


def check_timing_cross_check():
    def misses(trace):
        return run.timing_misses(trace)

    expect(misses(consistent_trace()) == [],
           "a consistent trace passes the timing cross-check")
    left_out = consistent_trace()  # graph layer neither timed nor run
    left_out["graph_s"] = 0
    left_out["traced_wall_s"] -= 1.7
    doubled = consistent_trace()
    doubled["graph_s"] *= 2
    misbooked = consistent_trace()  # a second of targets booked as solve
    misbooked["targets_s"] -= 1
    misbooked["solve_s"] += 1
    for what, trace, needle in (
            ("left out", left_out, "trace.coverage"),
            ("left out", left_out, "traced wall time differs"),
            ("doubled", doubled, "trace.coverage"),
            ("booked to the wrong layer", misbooked, "share of the time")):
        expect(any(needle in m for m in misses(trace)),
               f"a layer time {what} fails the timing cross-check with "
               f"'{needle}'")


def run_py(workload, trace, cwd=run.ROOT, rows=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    if rows:
        cmd += ["--rows", str(rows)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)


def check_metric_lines():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    expect(sorted(set(run.E2E_UNITS) - set(run.ZERO_AT_HEAD)) == sorted(e2e),
           "run.py's end-to-end metrics are the ones BENCHMARK.json names")
    expect(sorted(run.PER_LAYER_UNITS) == sorted(layers),
           "run.py's per-layer metrics are the ones BENCHMARK.json names")
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, named in ((0, list(run.E2E_UNITS)), (1, layers)):
            proc = run_py(name, trace, rows=TINY_ROWS[name])
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            printed = [m.group(1) for m in
                       (re.match(r"metric (\S+) = \S+ \S+ \(median", line)
                        for line in lines) if m]
            expect(proc.returncode == 0 and result.get("correct") is True,
                   f"{name} --trace {trace}: exit 0 and correct")
            expect(sorted(printed) == sorted(named),
                   f"{name} --trace {trace}: one metric line per metric")
            records = [json.loads(line[len("record "):]) for line in lines
                       if line.startswith("record ")]
            expect(records and all(STAMP_KEYS <= set(r) for r in records),
                   f"{name} --trace {trace}: every record is stamped")
            wanted = e2e if trace == 0 else layers
            expect(sorted(result.get("metrics", {})) == sorted(wanted),
                   f"{name} --trace {trace}: result carries exactly the "
                   "BENCHMARK.json metrics")


def check_bare_directory():
    bare = run.ROOT / ".bench_build" / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_py("tax-greedy", 0, cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0 and '"correct"' not in last,
           "without the sources run.py exits non-zero and prints no result")
    shutil.rmtree(bare)


def main():
    run.build()
    check_is_not_vacuous()
    check_timing_cross_check()
    check_metric_lines()
    check_bare_directory()
    if FAILURES:
        print(f"{len(FAILURES)} self-test(s) failed")
        sys.exit(1)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
