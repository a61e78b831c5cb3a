#!/usr/bin/env python3
"""evobench: the repository benchmark for evocat.

Run from the root of a source tree:

    python3 evobench/run.py --workload paper_serial --seed 1 --seconds 45 --trace 0

The first run builds `evocatd` and the benchmark's helpers from source into
`.bench_build/` (see evobench/CMakeLists.txt). Every run starts a fresh
`evocatd` child, drives it over loopback HTTP as a closed loop from this one
process (a single keep-alive connection), checks every result, and prints
its metrics; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics; `--trace 1` drives the daemon
through half as many batches, then runs the same jobs through the traced
driver (evobench_trace) and reports the per-layer metrics. Run artifacts (result
summaries, a `/metrics` scrape, spans, provenance) go to
`.bench_work/runs/<workload>-seed<seed>-trace<trace>/`. The metric catalogue
and the reasons for each workload are in evobench/METRICS.md.
"""

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark's directory clean
import layers  # noqa: E402
from layers import median, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
DAEMON = os.path.join(BUILD, "evocat", "evocatd")
TOOL = os.path.join(BUILD, "evobench_tool")
TRACER = os.path.join(BUILD, "evobench_trace")

# Fixed client-side settings; every run reports them.
POLL_S = 0.01          # status poll interval; job_s is quantized by it
SETUPS = 25            # set-ups per run; setup_s is their median
JOB_TIMEOUT_S = 120.0  # a job without a result by then counts as failed
RUN_BUDGET_S = 170.0   # the whole process stays under 180 s

# One round of paper jobs: the paper's four cases, Adult (its headline case)
# twice, so that the median job falls inside one case's cluster of job times
# instead of on the boundary between two.
PAPER_ROUND = ("adult", "housing", "german", "flare", "adult")
STRATEGIES = ("generational", "steady_state", "islands")
OUTPUTS = {"history": False, "initial_population": False,
           "final_population": False, "telemetry": False}

# Sizes. `--size min` shrinks them for the self-test only.
SIZES = {
    "full": {"paper_generations": 100, "scale_rows": 10000,
             "scale_generations": 100},
    "min": {"paper_generations": 5, "scale_rows": 2000,
            "scale_generations": 5},
}

# threads: the daemon's --threads. batch_s: nominal seconds of one batch
# (a paper round, a scale job, a burst) on a 4-core x86 box at the seed
# commit; a run plans round(--seconds / batch_s) batches, so every run of a
# workload does the same work and a faster program simply finishes sooner.
# mixed_burst is not in BENCHMARK.json: the daemon crashes in its first burst
# at the seed commit (ROADMAP open item 1), so its figures cannot be steady.
WORKLOADS = {
    "paper_serial": {"threads": 1, "csv": False, "batch_s": 11.0},
    "scale_csv": {"threads": 1, "csv": True, "batch_s": 6.5},
    "mixed_burst": {"threads": 4, "csv": True, "batch_s": 7.0},
}

E2E_UNITS = {
    "job_s.p50": "s", "job_s.p90": "s", "gens_per_s": "1/s",
    "jobs_per_s": "1/s", "batch_makespan_s": "s", "completed_ratio": "ratio",
    "peak_rss_mb": "MB", "cpu_s_per_job": "s", "setup_s": "s",
}


def log(*parts):
    print(*parts, flush=True)


def fail(message, code=2):
    print(f"evobench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def digest_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def master_seed(seed, tag, index):
    """JobSpec seeds.master for job `index` of a workload seed."""
    text = f"evobench:{seed}:{tag}:{index}".encode()
    return int(hashlib.sha256(text).hexdigest()[:15], 16)


# ---------------------------------------------------------------------------
# Build and provenance
# ---------------------------------------------------------------------------

def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no evocat sources (CMakeLists.txt, src/) under {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", *targets])
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(step)} (log: {log_path})", 3)


def cmake_cache():
    values = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def source_digest():
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(workers):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler or "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    flags = cache.get("CMAKE_CXX_FLAGS", "")
    simd_capable = platform.machine() in ("x86_64", "AMD64")
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "daemon_workers": workers,
        "simd": "on" if simd_capable and "EVOCAT_SIMD=0" not in flags
                else "off",
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_sha": sha or "none (not a git checkout)",
        "source_digest": source_digest(),
        "poll_interval_s": POLL_S,
    }


# ---------------------------------------------------------------------------
# The daemon child and its HTTP client
# ---------------------------------------------------------------------------

class TransportError(Exception):
    pass


class Client:
    """One keep-alive loopback connection; each call returns
    (status, body bytes, seconds)."""

    def __init__(self, port):
        self.port = port
        self.conn = None

    def request(self, method, path, body=None):
        start = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                       timeout=30)
            self.conn.request(method, path, body=body)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.close()
            raise TransportError(f"{method} {path}: {error!r}") from error
        return response.status, data, time.perf_counter() - start

    def close(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Daemon:
    """A fresh evocatd child. `start_s` is spawn until /healthz answers."""

    started = []  # every daemon of this process, ended on exit

    def __init__(self, run_dir, threads):
        wal = os.path.join(run_dir, "jobs.wal")
        for stale in (wal, wal + ".quarantine"):
            if os.path.exists(stale):
                os.remove(stale)
        self.log_path = os.path.join(run_dir, "evocatd.log")
        self.exit_status = None
        self.rusage = None
        self.client = None
        start = time.perf_counter()
        with open(self.log_path, "w") as out:
            self.proc = subprocess.Popen(
                [DAEMON, "--port=0", f"--threads={threads}", f"--wal={wal}"],
                stdout=out, stderr=subprocess.STDOUT, cwd=run_dir)
        Daemon.started.append(self)
        self.port = self._wait_for_port(start + 30.0)
        self.client = Client(self.port)
        while True:
            try:
                status, body, _ = self.client.request("GET", "/healthz")
                if status == 200:
                    self.health = json.loads(body)
                    break
            except TransportError:
                pass
            if time.perf_counter() > start + 30.0 or not self.alive():
                self.stop()
                fail("evocatd did not answer /healthz")
            time.sleep(0.0002)
        self.start_s = time.perf_counter() - start

    def _wait_for_port(self, deadline):
        marker = "listening on http://127.0.0.1:"
        while time.perf_counter() < deadline and self.alive():
            with open(self.log_path) as f:
                for line in f:
                    if marker in line:
                        return int(line.split(marker, 1)[1].split()[0])
            time.sleep(0.0002)
        self.stop()
        fail(f"evocatd did not start (log: {self.log_path})")

    def alive(self):
        if self.exit_status is not None:
            return False
        pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
        if pid == 0:
            return True
        self.exit_status = status
        self.rusage = rusage
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return False

    def signal(self):
        """The terminating signal number, or None."""
        if self.exit_status is None or not os.WIFSIGNALED(self.exit_status):
            return None
        return os.WTERMSIG(self.exit_status)

    def usage(self):
        """(cpu seconds, peak RSS in MB) from /proc, or from the reaped
        child's rusage once it has exited."""
        try:
            with open(f"/proc/{self.proc.pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{self.proc.pid}/status") as f:
                hwm_kb = next(int(line.split()[1]) for line in f
                              if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            fields = None  # exited (a zombie has no VmHWM)
        if fields is not None and self.alive():
            ticks = os.sysconf("SC_CLK_TCK")
            cpu = (int(fields[11]) + int(fields[12])) / ticks
            return cpu, hwm_kb / 1024.0
        while self.alive():
            time.sleep(0.001)
        return (self.rusage.ru_utime + self.rusage.ru_stime,
                self.rusage.ru_maxrss / 1024.0)

    def stop(self):
        if self.client is not None:
            self.client.close()
        if not self.alive():
            return
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + 10.0
        while self.alive():
            if time.perf_counter() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.005)

    def kill(self):
        """Ends a daemon at once: the extra set-ups, which never took a job,
        and any daemon still running when the process exits."""
        if self.client is not None:
            self.client.close()
        if self.alive():
            self.proc.kill()
            while self.alive():
                time.sleep(0.001)


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------

def paper_spec(seed, k, size, strategy="generational"):
    case = PAPER_ROUND[k % len(PAPER_ROUND)]
    return {"name": f"paper-{k}-{case}",
            "source": {"kind": "synthetic", "case": case},
            "ga": {"generations": size["paper_generations"]},
            "strategy": {"name": strategy},
            "seeds": {"master": master_seed(seed, "paper", k)},
            "outputs": OUTPUTS}


def scale_spec(seed, k, size, csv):
    """Adult-shaped CSV job. Mutation-only: at this row count a crossover
    leg that reaches a linkage measure's rebuild threshold costs O(rows^2),
    so a short budget's time would be set by how many legs happen to cross
    it (see METRICS.md)."""
    return {"name": f"scale-{k}",
            "source": {"kind": "csv", "path": csv["path"],
                       "ordinal_attributes": csv["ordinal"]},
            "protected_attributes": csv["protected"],
            "ga": {"generations": size["scale_generations"],
                   "mutation_rate": 1.0},
            "seeds": {"master": master_seed(seed, "scale", k)},
            "outputs": OUTPUTS}


def batches(workload, seed, size, csv, count):
    """The run's plan: `count` (specs, concurrent) batches."""
    for b in range(count):
        if workload == "paper_serial":
            # One round of paper jobs, one job at a time.
            n = len(PAPER_ROUND)
            yield [paper_spec(seed, n * b + j, size) for j in range(n)], False
        elif workload == "scale_csv":
            yield [scale_spec(seed, b, size, csv)], False
        else:
            # One heavy scale-shaped job plus a round of light paper jobs,
            # strategies rotating; all submitted at once. A light job has
            # the same spec as the paper_serial job of the same index when
            # its strategy is generational.
            n = len(PAPER_ROUND)
            light = [paper_spec(seed, n * b + j, size,
                                STRATEGIES[(b + j) % len(STRATEGIES)])
                     for j in range(n)]
            yield [scale_spec(seed, b, size, csv)] + light, True


def prepare_inputs(workload, seed, size, run_dir):
    """Writes the workload's input files; returns the CSV description."""
    if not WORKLOADS[workload]["csv"]:
        return None
    path = os.path.join(run_dir, "original.csv")
    out = subprocess.run(
        [TOOL, "gen", str(size["scale_rows"]),
         str(master_seed(seed, "csv", 0)), path],
        capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"input generation failed: {out.stderr.strip()}")
    info = json.loads(out.stdout)
    info["path"] = path
    info["rows"] = size["scale_rows"]
    return info


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class JobRecord:
    def __init__(self, spec, group):
        self.spec = spec
        self.group = group      # jobs of one group were in flight together
        self.id = None
        self.error = None       # set when the job failed, with the reason
        self.t_submit = None
        self.t_done = None
        self.submit_s = None
        self.poll_s = []
        self.result_s = None
        self.result_bytes = None
        self.queued_s = None
        self.run_s = None
        self.result = None      # RunArtifacts JSON minus the inline CSV
        self.csv = None         # path of the returned best file

    @property
    def done(self):
        return self.error is None and self.t_done is not None

    @property
    def job_s(self):
        return self.t_done - self.t_submit


class Loop:
    def __init__(self, daemon, run_dir, hard_deadline):
        self.daemon = daemon
        self.client = daemon.client
        self.best_dir = os.path.join(run_dir, "best")
        os.makedirs(self.best_dir, exist_ok=True)
        self.hard_deadline = hard_deadline
        self.http_errors = 0
        self.crashed = False

    def call(self, method, path, body=None):
        try:
            status, data, seconds = self.client.request(method, path, body)
        except TransportError:
            self.http_errors += 1
            raise
        if not 200 <= status < 300:
            self.http_errors += 1
        return status, data, seconds

    def death(self):
        return (f"daemon died (exit status {self.daemon.exit_status}, "
                f"signal {self.daemon.signal()})")

    def drive(self, specs, group):
        """Submits `specs` at once and waits for all of them."""
        jobs = [JobRecord(spec, group) for spec in specs]
        for job in jobs:
            job.t_submit = time.perf_counter()
            try:
                status, data, job.submit_s = self.call(
                    "POST", "/v1/jobs", json.dumps(job.spec))
            except TransportError as error:
                job.error = f"transport error on submit: {error}"
                if not self.daemon.alive():
                    self.crashed = True
                    job.error = self.death()
                continue
            if status != 202:
                job.error = f"submit answered {status}: {data[:200]!r}"
                continue
            job.id = json.loads(data)["id"]
        pending = [j for j in jobs if j.error is None]
        while pending:
            time.sleep(POLL_S)
            for job in list(pending):
                if not self.poll(job):
                    pending.remove(job)
            if pending and not self.daemon.alive():
                self.crashed = True
                for job in pending:
                    job.error = self.death()
                pending = []
        return jobs

    def poll(self, job):
        """One status poll; fetches the result when done. False once the
        job has an outcome."""
        now = time.perf_counter()
        if now > min(job.t_submit + JOB_TIMEOUT_S, self.hard_deadline):
            job.error = "timed out"
            return False
        try:
            status, data, seconds = self.call("GET", f"/v1/jobs/{job.id}")
        except TransportError as error:
            if self.daemon.alive():
                job.error = f"transport error on poll: {error}"
                return False
            return True  # the crash is accounted for by the caller
        job.poll_s.append(seconds)
        if status != 200:
            job.error = f"poll answered {status}"
            return False
        state = json.loads(data)
        if state["state"] in ("queued", "running"):
            return True
        job.queued_s = state.get("queued_seconds")
        job.run_s = state.get("run_seconds")
        if state["state"] != "done":
            job.error = f"job ended {state['state']}: {state.get('error')}"
            return False
        try:
            status, data, job.result_s = self.call(
                "GET", f"/v1/jobs/{job.id}/result")
        except TransportError as error:
            job.error = f"transport error on result: {error}"
            return False
        job.t_done = time.perf_counter()
        if status != 200:
            job.error = f"result answered {status}"
            return False
        job.result_bytes = len(data)
        result = json.loads(data)
        job.csv = os.path.join(self.best_dir, f"{job.id}.csv")
        with open(job.csv, "w") as f:
            f.write(result.pop("best_csv", ""))
        job.result = result
        return False


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def job_key(spec, csv):
    """Determinism key: the spec minus its name, with the CSV path replaced
    by the file's digest, so equal keys must give equal results."""
    spec = json.loads(json.dumps(spec))
    spec.pop("name", None)
    if spec["source"]["kind"] == "csv":
        spec["source"]["path"] = csv["digest"]
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


def verify(jobs, run_dir, csv, threads, label):
    """Re-scores every completed job's best file from scratch and checks it
    against the reference store (same spec -> same best file and score, on
    any run, any thread count and in the traced driver). Failing jobs get
    their error set. Returns the number of checks made."""
    done = [j for j in jobs if j.done]
    if not done:
        return 0
    manifest = os.path.join(run_dir, f"verify-{label}.jsonl")
    with open(manifest, "w") as f:
        for job in done:
            f.write(json.dumps({"id": job.id, "spec": job.result["spec"],
                                "csv": job.csv,
                                "score": job.result["best"]["fitness"]["score"]
                                }) + "\n")
    out = subprocess.run([TOOL, "verify", manifest], capture_output=True,
                         text=True)
    lines = {}
    for line in out.stdout.splitlines():
        entry = json.loads(line)
        lines[entry.get("id")] = entry
    store_path = os.path.join(WORK, "reference.json")
    try:
        with open(store_path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    silent = f"no answer from the verifier (exit code {out.returncode})"
    for job in done:
        entry = lines.get(job.id)
        if entry is None or not entry.get("ok"):
            job.error = ("correctness gate: " +
                         (entry or {}).get("error", silent))
            continue
        key = job_key(job.spec, csv)
        mine = {"score": job.result["best"]["fitness"]["score"],
                "csv": digest_file(job.csv), "threads": threads,
                "by": label}
        ref = store.setdefault(key, mine)
        if (ref["score"], ref["csv"]) != (mine["score"], mine["csv"]):
            job.error = (f"determinism: best differs from the {ref['by']} "
                         f"run at --threads={ref['threads']}")
    with open(store_path, "w") as f:
        json.dump(store, f)
    return len(done)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run(args):
    t_process = time.perf_counter()
    targets = ["evocatd", "evobench_tool"] + (["evobench_trace"]
                                               if args.trace else [])
    build(targets)
    shape = WORKLOADS[args.workload]
    size = SIZES[args.size]
    run_dir = os.path.join(
        WORK, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # Set-up: input preparation + daemon start until /healthz, repeated.
    # Daemon start fsyncs a fresh WAL, so first flush what earlier runs left
    # dirty: otherwise their writeback lands in this run's set-up time.
    os.sync()
    setup_samples = []
    daemon = None
    for i in range(1 if args.trace else SETUPS):
        if daemon is not None:
            daemon.kill()
        start = time.perf_counter()
        csv = prepare_inputs(args.workload, args.seed, size, run_dir)
        daemon = Daemon(run_dir, shape["threads"])
        setup_samples.append(time.perf_counter() - start)
    if csv is not None:
        csv["digest"] = digest_file(csv["path"])
    workers = daemon.health.get("workers")
    prov = provenance(workers)

    seconds = max(1, args.seconds // 2) if args.trace else args.seconds
    window_start = time.perf_counter()
    cpu_start, _ = daemon.usage()
    loop = Loop(daemon, run_dir, t_process + RUN_BUDGET_S - 40.0)
    jobs = []
    batch_spans = []
    planned = max(1, round(seconds / shape["batch_s"]))
    for b, (specs, concurrent) in enumerate(
            batches(args.workload, args.seed, size, csv, planned)):
        if loop.crashed:
            break  # no restart: the crash already failed its batch
        first = time.perf_counter()
        if concurrent:
            batch_jobs = loop.drive(specs, str(b))
        else:
            batch_jobs = []
            for spec in specs:
                group = f"{b}.{len(batch_jobs)}"
                if loop.crashed:
                    lost = JobRecord(spec, group)
                    lost.error = "not run: the daemon had died"
                    batch_jobs.append(lost)
                else:
                    batch_jobs += loop.drive([spec], group)
        batch_spans.append(time.perf_counter() - first)
        jobs += batch_jobs
        if any(j.error == "timed out" for j in batch_jobs):
            break
    window_s = time.perf_counter() - window_start
    cpu_end, peak_rss_mb = daemon.usage()
    alive = daemon.alive()
    counted = None
    if alive:
        scrape = daemon.client.request("GET", "/metrics")[1]
        with open(os.path.join(run_dir, "metrics.prom"), "wb") as f:
            f.write(scrape)
        health = json.loads(daemon.client.request("GET", "/healthz")[1])
        counted = {"healthz_done": health["jobs"]["done"],
                   "evolve_stages": prom_value(
                       scrape, 'evocat_session_stage_seconds_count'
                               '{stage="evolve"}'),
                   "submits": prom_value(
                       scrape, 'evocat_http_requests_total{route="/v1/jobs"}')}
    daemon.stop()
    crash_signal = None if alive else daemon.signal()

    t_verify = time.perf_counter()
    checked = verify(jobs, run_dir, csv, shape["threads"], "daemon")
    verify_s = time.perf_counter() - t_verify
    completed = [j for j in jobs if j.done]
    counters_agree = counted is None or counted == {
        "healthz_done": len([j for j in jobs if j.t_done is not None]),
        "evolve_stages": len([j for j in jobs if j.t_done is not None]),
        "submits": len([j for j in jobs if j.submit_s is not None])}
    for job in jobs:
        if job.csv and job.done:
            os.remove(job.csv)

    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": seconds, "provenance": prov,
               "phases_s": {"setup": window_start - t_process,
                            "window": window_s, "verify": verify_s},
               "crash_signal": crash_signal, "daemon_counters": counted,
               "counters_agree": counters_agree, "checked": checked,
               "failures": [{"name": j.spec["name"], "error": j.error}
                            for j in jobs if j.error],
               "jobs": [{"name": j.spec["name"], "id": j.id,
                         "job_s": j.job_s if j.done else None,
                         "queued_s": j.queued_s, "run_s": j.run_s}
                        for j in jobs],
               "setup_s": setup_samples}
    attempted = len(jobs)
    failed = attempted - len(completed)
    correct = counters_agree and not any(
        j.error.startswith(("correctness", "determinism"))
        for j in jobs if j.error)

    if args.trace:
        traced = layers.traced_run(
            TRACER, run_dir, jobs, shape["threads"], csv,
            deadline=t_process + RUN_BUDGET_S, verify_against=verify,
            record_type=JobRecord)
        attempted += traced["attempted"]
        failed += traced["failed"]
        correct = correct and traced["correct"]
        metrics = layers.per_layer_metrics(
            traced, jobs, loop.http_errors, window_s, cpu_end - cpu_start,
            workers, setup_gen_s=(csv or {}).get("generate_s"))
        summary["trace"] = traced["summary"]
    else:
        metrics = e2e_metrics(completed, attempted, window_s, batch_spans,
                              cpu_end - cpu_start, peak_rss_mb,
                              setup_samples)
    summary["metrics"] = metrics

    summary["phases_s"]["total"] = time.perf_counter() - t_process
    with open(os.path.join(run_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    report(summary, completed, attempted, failed, correct)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def prom_value(scrape, series):
    """The value of one series in a Prometheus text scrape, or None."""
    for line in scrape.decode().splitlines():
        if line.startswith(series + " "):
            return int(float(line.split()[-1]))
    return None


def e2e_metrics(completed, attempted, window_s, batch_spans, cpu_s,
                peak_rss_mb, setup_samples):
    job_s = [j.job_s for j in completed]
    gens = sum(j.result["stats"]["mutation_generations"] +
               j.result["stats"]["crossover_generations"] for j in completed)
    values = {
        "job_s.p50": median(job_s),
        "job_s.p90": percentile(job_s, 90),
        "gens_per_s": gens / sum(job_s) if job_s else 0.0,
        "jobs_per_s": len(completed) / window_s,
        "batch_makespan_s": median(batch_spans),
        "completed_ratio": len(completed) / max(1, attempted),
        "peak_rss_mb": peak_rss_mb,
        "cpu_s_per_job": cpu_s / max(1, len(completed)),
        "setup_s": median(setup_samples),
    }
    return {name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in values.items()}


def report(summary, completed, attempted, failed, correct):
    prov = summary["provenance"]
    log(f"# evobench {summary['workload']} seed={summary['seed']} "
        f"window={summary['seconds']}s poll={POLL_S}s")
    log("# " + " ".join(f"{k}={v}" for k, v in prov.items()))
    log(f"# jobs: attempted={attempted} completed={len(completed)} "
        f"failed={failed} correct={correct} "
        f"verified={summary['checked']} "
        f"counters_agree={summary['counters_agree']}")
    if summary["crash_signal"] is not None:
        log(f"# daemon crashed: signal {summary['crash_signal']}")
    trace = summary.get("trace", {})
    if trace.get("signal") is not None or trace.get("timed_out"):
        log(f"# traced driver died: signal {trace.get('signal')}, "
            f"timed out {trace.get('timed_out')}")
    for failure in trace.get("failures", [])[:10]:
        log(f"# traced failed {failure['name']}: {failure['error']}")
    for failure in summary["failures"][:10]:
        log(f"# failed {failure['name']}: {failure['error']}")
    log("# phases: " + " ".join(f"{k}={v:.1f}s"
                                for k, v in summary["phases_s"].items()))
    log(f"# job_s samples={len(completed)}")
    for name, metric in summary["metrics"].items():
        log(f"{name} {metric['value']:.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'min' shrinks every job (self-test only)")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    try:
        return run(args)
    finally:
        for daemon in Daemon.started:
            daemon.kill()


if __name__ == "__main__":
    sys.exit(main())
