#!/usr/bin/env python3
"""Self-test of evobench. Run from the root of a source tree:

    python3 evobench/selftest.py

1. Runs every workload at minimal size (`--size min`), with `--trace 0` and
   `--trace 1`, and checks the result line against BENCHMARK.json: exactly
   the keys correct/attempted/failed/metrics, every metric name and unit,
   numeric values, and a passing correctness gate.
2. Shows that the gate rejects a tampered result: one returned best CSV
   with one flipped cell must fail the from-scratch re-score.
3. Runs one spec on a --threads=1 and a --threads=4 daemon; the reference
   store must see the same best file and score.
4. Runs the benchmark in a directory that holds only BENCHMARK.json and
   evobench/; it must fail without printing a result.

Exits 0 when every check passes.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark's directory clean
import run  # noqa: E402

SEED = 7
FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_workloads(spec):
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            start = time.perf_counter()
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", str(SEED), "--seconds",
                 "4", "--trace", str(trace), "--size", "min"],
                cwd=run.ROOT, capture_output=True, text=True)
            line = result_line(out.stdout)
            check(out.returncode == 0 and line is not None,
                  f"{label}: exits 0 with a result line "
                  f"({time.perf_counter() - start:.0f} s)")
            if line is None:
                print(out.stderr[-2000:])
                continue
            check(set(line) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(isinstance(line["attempted"], int) and line["attempted"] >= 1
                  and isinstance(line["failed"], int),
                  f"{label}: attempted={line['attempted']} "
                  f"failed={line['failed']}")
            check(line["correct"] is True, f"{label}: correctness gate holds")
            got = {name: m.get("unit") for name, m in line["metrics"].items()}
            check(got == expected[trace], f"{label}: metric names and units")
            check(all(isinstance(m.get("value"), (int, float))
                      for m in line["metrics"].values()),
                  f"{label}: numeric values")
            for text in out.stdout.splitlines():
                if text.startswith("# daemon crashed"):
                    print(f"      {label}: {text[2:]}")


def flip_one_cell(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    column = header.index("EDUCATION")
    values = sorted({r[column] for r in body})
    old = body[0][column]
    body[0][column] = next(v for v in values if v != old)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([header] + body)


def drive_one(spec, threads, run_dir):
    daemon = run.Daemon(run_dir, threads)
    try:
        loop = run.Loop(daemon, run_dir, time.perf_counter() + 120)
        job = loop.drive([spec], "0")[0]
    finally:
        daemon.stop()
    return job


def check_gate():
    run_dir = os.path.join(run.WORK, "selftest")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spec = run.paper_spec(SEED, 0, run.SIZES["min"])
    job = drive_one(spec, 1, run_dir)
    check(job.done, f"tamper: job completed ({job.error})")
    if not job.done:
        return
    run.verify([job], run_dir, None, 1, "selftest")
    check(job.error is None, "tamper: the untouched best passes the gate")
    flip_one_cell(job.csv)
    job.error = None
    run.verify([job], run_dir, None, 1, "selftest")
    check(job.error is not None and job.error.startswith("correctness gate"),
          f"tamper: one flipped cell is rejected ({job.error})")

    other = drive_one(spec, 4, run_dir)
    check(other.done, f"threads: the same spec completes on --threads=4 "
                      f"({other.error})")
    if other.done:
        run.verify([other], run_dir, None, 4, "selftest-threads4")
        check(other.error is None,
              f"threads: --threads=1 and --threads=4 agree ({other.error})")


def check_bare_directory():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "evobench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "evobench/run.py", "--workload", "paper_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(out.returncode != 0 and result_line(out.stdout) is None,
          f"bare directory: exits {out.returncode} without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
          "BENCHMARK.json names only run.py workloads")
    check({m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS),
          "BENCHMARK.json end-to-end metrics match run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == run.layers.metric_units(),
          "BENCHMARK.json per-layer metrics match layers.py")
    run.build(["evocatd", "evobench_tool", "evobench_trace"])
    check_workloads(spec)
    check_gate()
    check_bare_directory()
    print(f"{len(FAILURES)} failed check(s)" if FAILURES else "all checks pass")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
