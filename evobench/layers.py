"""The traced run and the per-layer metrics of evobench (run.py --trace 1).

The traced driver (evobench_trace) re-runs the daemon phase's jobs through
the layers' public functions and writes spans, per-job counts and segment
replays as JSON lines. This module runs it as a child process, checks its
results against the daemon's, and folds everything into the per-layer
metrics listed in METRICS.md.
"""

import json
import os
import statistics
import subprocess
import time

LAYERS = ("common", "api", "data", "datagen", "protection", "metrics", "core",
          "evolve")
MEASURES = ("CTBIL", "DBIL", "EBIL", "ID", "DBRL", "PRL", "RSRL")
KINDS = ("mutation", "crossover")
STRATEGIES = ("generational", "steady_state", "islands")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for q in ("p50", "p90"):
        units[f"server.submit_s.{q}"] = "s"
        units[f"server.poll_s.{q}"] = "s"
        units[f"server.queue_wait_s.{q}"] = "s"
    units["server.result_s.p50"] = "s"
    units["server.result_bytes"] = "bytes"
    units["server.http_errors"] = "count"
    for stage in ("load", "protect", "bind", "evolve", "other"):
        units[f"api.{stage}_s"] = "s"
    units["data.csv_read_s"] = "s"
    units["data.csv_cache_hits"] = "count"
    units["data.csv_cache_misses"] = "count"
    units["datagen.generate_s"] = "s"
    units["protection.build_s"] = "s"
    units["protection.members"] = "count"
    units["metrics.create_s"] = "s"
    units["metrics.bind_state_s.p50"] = "s"
    units["metrics.bind_state_s.sum"] = "s"
    for kind in KINDS:
        for q in ("p50", "p90"):
            units[f"metrics.apply_s.{kind}.{q}"] = "s"
    for measure in MEASURES:
        for kind in KINDS:
            units[f"metrics.measure_apply_s.{measure}.{kind}"] = "s"
        units[f"metrics.rebuilds.{measure}"] = "count"
    for kind in KINDS:
        units[f"metrics.segment_cells.{kind}"] = "cells"
    for kind in KINDS:
        for q in ("p50", "p90"):
            units[f"core.generation_s.{kind}.{q}"] = "s"
    units["core.eval_share"] = "ratio"
    units["core.accept_ratio"] = "ratio"
    for strategy in STRATEGIES:
        units[f"evolve.run_s.{strategy}"] = "s"
    units["scheduler.workers"] = "count"
    units["scheduler.steals"] = "count"
    units["scheduler.busy_share"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.jobs"] = "count"
    return units


def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def covered(intervals, start, end):
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def traced_run(tracer, run_dir, jobs, threads, csv, deadline, verify_against,
               record_type):
    """Runs the daemon phase's jobs, grouped as they were submitted, through
    the traced driver; checks each traced best against the re-scoring gate
    and the daemon's result. Returns the parsed trace."""
    trace_dir = os.path.join(run_dir, "traced")
    os.makedirs(trace_dir, exist_ok=True)
    groups = {}
    for job in jobs:
        groups.setdefault(job.group, []).append(
            {"id": job.spec["name"], "spec": job.spec,
             "csv_out": os.path.join(trace_dir, job.spec["name"] + ".csv")})
    planned = [entry for group in groups.values() for entry in group]
    jobs_path = os.path.join(run_dir, "trace-jobs.json")
    with open(jobs_path, "w") as f:
        json.dump({"threads": threads,
                   "groups": list(groups.values())}, f)
    out_path = os.path.join(run_dir, "trace.jsonl")
    start = time.perf_counter()
    child = subprocess.Popen([tracer, jobs_path, out_path],
                             stderr=subprocess.PIPE, text=True)
    timed_out = False
    try:
        _, stderr = child.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        if child.poll() is None:
            child.kill()
    if timed_out:
        _, stderr = child.communicate()
    wall_s = time.perf_counter() - start

    spans, traced, replays, summary = [], {}, {}, {}
    if os.path.exists(out_path):
        with open(out_path) as f:
            for line in f:
                try:
                    entry = json.loads(line)
                except ValueError:
                    break  # a line cut short by a crash
                kind = entry.pop("type")
                if kind == "span":
                    spans.append(entry)
                elif kind == "job":
                    traced[entry["id"]] = entry
                elif kind == "replay":
                    replays[entry["id"]] = entry
                else:
                    summary = entry

    by_name = {job.spec["name"]: job for job in jobs}
    records = []
    failures = []
    for entry in planned:
        name = entry["id"]
        result = traced.get(name)
        if result is None or not result["ok"]:
            failures.append({"name": name, "error": (result or {}).get(
                "error", "lost: the traced driver did not finish it")})
            continue
        record = record_type(entry["spec"], by_name[name].group)
        record.id = "traced-" + name
        record.t_submit = record.t_done = 0.0
        record.csv = result["csv"]
        record.result = {"spec": entry["spec"],
                         "best": {"fitness": {"score": result["score"]}}}
        records.append(record)
    verify_against(records, run_dir, csv, threads, "traced")
    correct = True
    for record in records:
        if record.error:
            failures.append({"name": record.spec["name"],
                             "error": record.error})
            correct = False
    exit_signal = -child.returncode if child.returncode < 0 else None
    return {
        "attempted": len(planned),
        "failed": len(failures),
        "correct": correct,
        "spans": spans,
        "jobs": traced,
        "replays": replays,
        "summary": {"returncode": child.returncode, "signal": exit_signal,
                    "timed_out": timed_out, "wall_s": wall_s,
                    "stderr": stderr[-2000:], "failures": failures,
                    **summary},
    }


def per_layer_metrics(traced, daemon_jobs, http_errors, window_s, cpu_s,
                      workers, setup_gen_s):
    values = {}
    done = [j for j in daemon_jobs if j.done]

    # server: the daemon phase, timed from the load generator.
    submits = [j.submit_s for j in daemon_jobs if j.submit_s is not None]
    polls = [s for j in daemon_jobs for s in j.poll_s]
    waits = [j.queued_s for j in daemon_jobs if j.queued_s is not None]
    for q in (50, 90):
        values[f"server.submit_s.p{q}"] = percentile(submits, q)
        values[f"server.poll_s.p{q}"] = percentile(polls, q)
        values[f"server.queue_wait_s.p{q}"] = percentile(waits, q)
    values["server.result_s.p50"] = median([j.result_s for j in done])
    values["server.result_bytes"] = median([j.result_bytes for j in done])
    values["server.http_errors"] = http_errors

    spans = traced["spans"]
    jobs = {name: job for name, job in traced["jobs"].items() if job["ok"]}
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    by_job = {}
    for span in spans:
        if span["job"] in jobs:
            by_job.setdefault(span["job"], []).append(span)

    def durations(name, job_filter=None):
        return [s["end"] - s["start"] for s in spans
                if s["name"] == name and s["job"] in jobs
                and (job_filter is None or job_filter(jobs[s["job"]]))]

    # api: Session stages as the driver reproduced them.
    stage_names = {"load": ("data.load_source", "datagen.load_source"),
                   "protect": ("protection.build",),
                   "bind": ("metrics.create", "metrics.bind"),
                   "evolve": ("evolve.run",)}
    per_stage = {stage: [] for stage in stage_names}
    other, wall_of, coverage_num = [], {}, 0.0
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for name, job_spans in by_job.items():
        root = next((s for s in job_spans if s["name"] == "api.job"), None)
        if root is None:
            continue
        wall = wall_of[name] = root["end"] - root["start"]
        staged = 0.0
        for stage, names in stage_names.items():
            seconds = sum(s["end"] - s["start"] for s in job_spans
                          if s["name"] in names)
            per_stage[stage].append(seconds)
            staged += seconds
        other.append(wall - staged)
        below = [(s["start"], s["end"]) for s in job_spans
                 if s["name"] not in ("api.job", "common.task")]
        coverage_num += covered(below, root["start"], root["end"])
        for span in job_spans:
            kids = [(c["start"], c["end"]) for c in children.get(span["id"], [])]
            self_s = (span["end"] - span["start"]) - covered(
                kids, span["start"], span["end"])
            self_by_layer[span["layer"]] += self_s
    for stage, seconds in per_stage.items():
        values[f"api.{stage}_s"] = median(seconds)
    values["api.other_s"] = median(other)

    # data / datagen
    values["data.csv_read_s"] = median(durations("data.load_source"))
    summary = traced["summary"]
    values["data.csv_cache_hits"] = summary.get("cache_hits", 0)
    values["data.csv_cache_misses"] = summary.get("cache_misses", 0)
    generated = durations("datagen.load_source")
    if setup_gen_s is not None:
        generated.append(setup_gen_s)
    values["datagen.generate_s"] = median(generated)

    # protection
    values["protection.build_s"] = median(durations("protection.build"))
    values["protection.members"] = median([j["members"] for j in jobs.values()])

    # metrics: bind, then the segment replays.
    values["metrics.create_s"] = median(durations("metrics.create"))
    values["metrics.bind_state_s.p50"] = median(durations("metrics.bind_state"))
    values["metrics.bind_state_s.sum"] = median([
        sum(s["end"] - s["start"] for s in job_spans
            if s["name"] == "metrics.bind_state")
        for job_spans in by_job.values()])
    replays = [r for name, r in traced["replays"].items()
               if name in jobs and "error" not in r]
    for kind in KINDS:
        applies = [t for r in replays for t in r[kind]["apply_s"]]
        cells = [c for r in replays for c in r[kind]["cells"]]
        for q in (50, 90):
            values[f"metrics.apply_s.{kind}.p{q}"] = percentile(applies, q)
        values[f"metrics.segment_cells.{kind}"] = (
            sum(cells) / len(cells) if cells else 0.0)
    for measure in MEASURES:
        for kind in KINDS:
            values[f"metrics.measure_apply_s.{measure}.{kind}"] = median([
                t for r in replays
                for t in r[kind]["measures"].get(measure, {}).get("apply_s", [])])
        values[f"metrics.rebuilds.{measure}"] = sum(
            r[kind]["measures"].get(measure, {}).get("rebuilds", 0)
            for r in replays for kind in KINDS)

    # core: progress-callback deltas of EvolutionEngine::Run.
    for kind in KINDS:
        gens = durations(f"core.{kind}")
        for q in (50, 90):
            values[f"core.generation_s.{kind}.p{q}"] = percentile(gens, q)
    gen_total = sum(j["gen_total_s"] for j in jobs.values())
    values["core.eval_share"] = (
        sum(j["gen_eval_s"] for j in jobs.values()) / gen_total
        if gen_total > 0 else 0.0)
    offspring = sum(j["offspring"] for j in jobs.values())
    values["core.accept_ratio"] = (
        sum(j["accepted"] for j in jobs.values()) / offspring
        if offspring else 0.0)

    # evolve
    for strategy in STRATEGIES:
        values[f"evolve.run_s.{strategy}"] = median(durations(
            "evolve.run", lambda j, s=strategy: j["strategy"] == s))

    # common: the scheduler, and the daemon's busy share.
    values["scheduler.workers"] = summary.get("workers", workers or 0)
    values["scheduler.steals"] = summary.get("steals", 0)
    values["scheduler.busy_share"] = (
        cpu_s / (window_s * workers) if window_s > 0 and workers else 0.0)

    # Self time per layer (mean per traced job), coverage and overhead.
    count = max(1, len(wall_of))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_by_layer[layer] / count
    total_wall = sum(wall_of.values())
    values["trace.coverage"] = coverage_num / total_wall if wall_of else 0.0
    run_s = {j.spec["name"]: j.run_s for j in done}
    values["trace.overhead_s"] = median([
        wall - run_s[name] for name, wall in wall_of.items()
        if run_s.get(name) is not None])
    values["trace.jobs"] = len(wall_of)

    units = metric_units()
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}
