#!/usr/bin/env python3
"""End-to-end benchmark of `cellsync_deconvolve run` (cold and warm kernel
cache) and `stream`, with a traced per-layer replay. See README.md here.

    python3 e2ebench/run.py --workload run_cold|run_warm|stream --seed N \\
        --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test [--seed N]

Run it from the root of a cellsync checkout. It builds the program and the
benchmark's binaries into .bench_build/, works in .bench_work/, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 times the real command closed-loop (one at a time, fixed
--threads) and reports the end-to-end metrics; --trace 1 alternates the
command at --threads 1 with the traced replay (e2e_replay) and reports the
per-layer metrics. Exits 1 when an output check fails, 2 when the
benchmark cannot run at all (no checkout to build, build failure).
"""

import argparse
import collections
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
CLI = os.path.join(BUILD, "cellsync", "tools", "cellsync_deconvolve")
GENERATE = os.path.join(BUILD, "e2e_generate")
REPLAY = os.path.join(BUILD, "e2e_replay")

WORKLOADS = ("run_cold", "run_warm", "stream")
# Every timed command gets the same --threads, never more than the host has.
THREADS = min(4, os.cpu_count() or 1)
# A run cycles through this many input sets generated from its seed, so
# its medians and its recovery error average over several noise
# realizations instead of riding on one: per-gene solve cost and error
# depend on the noise, and one set of 12 genes (run_cold) would make them
# swing with the seed.
INPUT_SETS = 12
SETUP_REPEATS = 3
MIN_TIMED_ITERATIONS = 2 * INPUT_SETS
MIN_TRACED_ITERATIONS = 2
COMMAND_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
PHI_POINTS = 201
INTERIOR = range(8, 193)  # phi = i/200 in [0.04, 0.96]

PER_LAYER_UNITS = {
    "population.kernel_ms": "ms",
    "population.kernel_builds": "count",
    "population.kernel_disk_hits": "count",
    "population.cells_simulated": "count",
    "core.cv_ms": "ms",
    "core.cv_fits": "count",
    "core.cv_disqualified": "count",
    "core.estimate_ms": "ms",
    "numerics.qp_iterations": "count",
    "core.bound_genes": "fraction",
    "core.gene_ms_p50": "ms",
    "core.gene_ms_max": "ms",
    "stream.open_ms": "ms",
    "stream.append_ms": "ms",
    "stream.timepoint_ms_max": "ms",
    "stream.updates": "count",
    "stream.warm_accepts": "count",
    "stream.cold_solves": "count",
    "stream.warm_accept_ratio": "fraction",
    "core.design_ms": "ms",
    "core.score_ms": "ms",
    "io.read_ms": "ms",
    "io.write_ms": "ms",
    "trace.wall_ratio": "ratio",
    "trace.attributed": "fraction",
    "host.effective_parallelism": "cores",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no result line is printed)."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

Outcome = collections.namedtuple("Outcome", "wall_s cpu_s rss_mb code stdout")


def run_child(cmd, log_path):
    """Run one command to completion; wall time, its own rusage, output."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "r", errors="replace") as log:
        stdout = log.read()
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, stdout)


def run_checked(cmd, log_path, what):
    outcome = run_child(cmd, log_path)
    if outcome.code != 0:
        raise BenchError("%s failed (exit %d):\n%s" % (what, outcome.code, outcome.stdout[-2000:]))
    return outcome


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no cellsync checkout around %s to build" % HERE)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "e2ebench-build.log")
    with open(log_path, "wb") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "build.ninja")) and \
                not os.path.isfile(os.path.join(BUILD, "Makefile")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "-j", str(THREADS)])
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                if step is steps[0] and len(steps) == 2:
                    shutil.rmtree(BUILD, ignore_errors=True)
                with open(log_path, errors="replace") as f:
                    tail = f.read()[-3000:]
                raise BenchError("build step %s failed:\n%s" % (" ".join(step), tail))
    for binary in (CLI, GENERATE, REPLAY):
        if not os.access(binary, os.X_OK):
            raise BenchError("build produced no %s" % binary)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

class Dirs:
    def __init__(self, name):
        base = os.path.join(WORK, name)
        self.base = base
        self.inputs = os.path.join(base, "inputs")
        self.cache = os.path.join(base, "cache")
        self.out = os.path.join(base, "out")
        self.replay_out = os.path.join(base, "replay")
        self.logs = os.path.join(base, "logs")
        os.makedirs(self.logs, exist_ok=True)

    def input_set(self, k):
        return os.path.join(self.inputs, "set%d" % k)


def inputs_digest(path):
    digest = hashlib.sha256()
    for folder, _, names in sorted(os.walk(path)):
        for name in sorted(names):
            digest.update(os.path.join(os.path.relpath(folder, path), name).encode())
            with open(os.path.join(folder, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def setup(workload, seed, dirs):
    """Generate the input sets (and pre-warm the kernel cache for the warm
    workloads). Returns (seconds, manifest, input digest). The kernels
    depend only on the conditions and the time grid, which every set
    shares, so one pre-warm serves all sets."""
    start = time.perf_counter()
    reset_dir(dirs.inputs)
    for k in range(INPUT_SETS):
        os.makedirs(dirs.input_set(k))
        run_checked([GENERATE, "workload", "--name", workload,
                     "--seed", str(seed * INPUT_SETS + k), "--out", dirs.input_set(k)],
                    os.path.join(dirs.logs, "generate.log"), "generator")
    first = dirs.input_set(0)
    with open(os.path.join(first, "workload.json")) as f:
        manifest = json.load(f)
    if workload != "run_cold":
        reset_dir(dirs.cache)
        for condition in manifest["conditions"]:
            grid = os.path.join(first, manifest.get("times", condition["panel"]))
            run_checked([CLI, "kernel", "cache", "--cache-dir", dirs.cache,
                         "--times-from", grid, "--mu-sst", repr(condition["mu_sst"]),
                         "--cycle-minutes", repr(condition["cycle_minutes"])],
                        os.path.join(dirs.logs, "prewarm.log"), "kernel cache pre-warm")
    return time.perf_counter() - start, manifest, inputs_digest(dirs.inputs)


def gene_labels(manifest, inputs):
    with open(os.path.join(inputs, manifest["truth"])) as f:
        return f.readline().strip().split(",")[1:]


def command(manifest, inputs, cache, threads, out_dir, replay=False, trace_path=None):
    """The CLI invocation for one input set (or the replay's equivalent)."""
    if "records" in manifest:
        c = manifest["conditions"][0]
        cmd = ([REPLAY, "stream"] if replay else [CLI, "stream", "--threads", str(threads)]) + [
            "--cache-dir", cache,
            "--input", os.path.join(inputs, manifest["records"]),
            "--times-from", os.path.join(inputs, manifest["times"]),
            "--lambda", repr(manifest["lambda"]),
            "--mu-sst", repr(c["mu_sst"]), "--cycle-minutes", repr(c["cycle_minutes"]),
            "--output", os.path.join(out_dir, "streamed.csv")]
    else:
        cmd = ([REPLAY, "run"] if replay else [CLI, "run", "--threads", str(threads)]) + [
            "--cache-dir", cache, "--output", os.path.join(out_dir, "profiles.csv")]
        for c in manifest["conditions"]:
            cmd += ["--condition", "%s=%s,mu_sst=%r,cycle_minutes=%r" % (
                c["name"], os.path.join(inputs, c["panel"]), c["mu_sst"],
                c["cycle_minutes"])]
    if replay:
        cmd += ["--trace", trace_path]
    return cmd


def output_files(manifest, out_dir):
    """{condition name: profile CSV path} the command must write."""
    if "records" in manifest:
        return {manifest["conditions"][0]["name"]: os.path.join(out_dir, "streamed.csv")}
    return {c["name"]: os.path.join(out_dir, "profiles.%s.csv" % c["name"])
            for c in manifest["conditions"]}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def read_profiles(path):
    """(lambda comment text per gene, column text per name) of a profile CSV."""
    lambdas, rows = {}, []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# lambda:"):
                gene, _, value = line[len("# lambda:"):].partition("=")
                lambdas[gene] = value
            elif line and not line.startswith("#"):
                rows.append(line.split(","))
    if not rows:
        raise ValueError("empty profile file")
    header, body = rows[0], rows[1:]
    if any(len(row) != len(header) for row in body):
        raise ValueError("ragged rows")
    return lambdas, {name: [row[i] for row in body] for i, name in enumerate(header)}


def finite_column(text):
    try:
        values = [float(x) for x in text]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def reported_failures(stdout, workload_is_stream):
    """Labels the command itself reported as failed: run's `FAILED` lines
    (per condition) or stream's per-update error lines (counted per gene)."""
    failed = {}
    condition = None
    for line in stdout.splitlines():
        if workload_is_stream:
            m = re.match(r"\s+t=\S+\s+gene '([^']*)'", line)
            if m:
                failed[(None, m.group(1))] = failed.get((None, m.group(1)), 0) + 1
            continue
        m = re.match(r"condition (\S+)\s*:", line)
        if m:
            condition = m.group(1)
        m = re.match(r"\s+(\S+)\s+FAILED:", line)
        if m:
            failed[(condition, m.group(1))] = 1
    return failed


def check_outputs(manifest, inputs, out_dir, code, stdout, reference):
    """Count operations and failed operations of one command run.

    An operation is a gene solve for `run` and a gene update (one gene at
    one timepoint) for `stream`. A gene's operations fail on a FAILED gene
    or update error, a missing or non-finite profile column, a nonzero
    exit, or profile bytes that differ from `reference` (the workload's
    first iteration; filled in when empty). Returns (attempted, failed,
    {(condition, gene): [values]}).
    """
    is_stream = "records" in manifest
    genes = gene_labels(manifest, inputs)
    per_gene = manifest["timepoints"] if is_stream else 1
    reported = reported_failures(stdout, is_stream)
    attempted = failed = 0
    profiles = {}
    for condition, path in output_files(manifest, out_dir).items():
        try:
            lambdas, columns = read_profiles(path)
            phi = finite_column(columns.get("phi", []))
            if phi is None or len(phi) != PHI_POINTS or \
                    any(abs(p - i / 200.0) > 1e-12 for i, p in enumerate(phi)):
                columns = {}
        except (OSError, ValueError):
            lambdas, columns = {}, {}
        for gene in genes:
            attempted += per_gene
            values = finite_column(columns[gene]) if gene in columns else None
            key = (condition, gene)
            signature = None
            if values is not None and gene in lambdas:
                signature = hashlib.sha1(
                    (lambdas[gene] + "|" + ",".join(columns[gene])).encode()).hexdigest()
            if key not in reference and signature is not None and code == 0:
                reference[key] = signature
            bad_updates = reported.get((None if is_stream else condition, gene), 0)
            if code != 0 or signature is None or reference.get(key) != signature:
                bad_updates = per_gene
            failed += min(per_gene, bad_updates)
            if values is not None:
                profiles[key] = values
    return attempted, failed, profiles


def gene_nrmses(manifest, inputs, profiles):
    """Per gene: RMSE / range(truth) on interior phases."""
    _, truth = read_profiles(os.path.join(inputs, manifest["truth"]))
    scores = []
    for (_, gene), values in sorted(profiles.items()):
        t = [float(truth[gene][i]) for i in INTERIOR]
        e = [values[i] for i in INTERIOR]
        spread = max(t) - min(t)
        if spread > 0:
            rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(e, t)) / len(t))
            scores.append(rmse / spread)
    return scores


# ---------------------------------------------------------------------------
# Statistics and host stamp
# ---------------------------------------------------------------------------

def tail_percentile(values):
    """Highest of p99/p95/p90/p75 with at least 10 samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(math.ceil(p / 100.0 * n)) - 1)]
    return None, None


def calibrate():
    out = run_checked([GENERATE, "calibrate", "--copies", str(THREADS)],
                      os.path.join(WORK, "calibrate.log"), "host calibration")
    return json.loads(out.stdout.strip().splitlines()[-1])


def host_stamp(calibration):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    if sha is None:
        digest = hashlib.sha256()
        for top in ("src", "tools", "CMakeLists.txt"):
            path = os.path.join(ROOT, top)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
            for name in files:
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
        sha = "source-sha256:" + digest.hexdigest()[:16]
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = compiler
    return {"git_sha": sha, "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""), "nproc": os.cpu_count(),
            "threads": THREADS,
            "effective_parallelism": round(calibration["effective_parallelism"], 4)}


# ---------------------------------------------------------------------------
# Timed runs (--trace 0)
# ---------------------------------------------------------------------------

def timed(workload, seed, seconds, dirs):
    setups, digests = [], set()
    for _ in range(SETUP_REPEATS):
        seconds_taken, manifest, digest = setup(workload, seed, dirs)
        setups.append(seconds_taken)
        digests.add(digest)
    if len(digests) != 1:
        raise BenchError("the generator gave different inputs for one seed")

    outcomes = []
    references = [{} for _ in range(INPUT_SETS)]
    nrmses = {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(outcomes) < MIN_TIMED_ITERATIONS or time.perf_counter() < deadline:
        k = len(outcomes) % INPUT_SETS
        if workload == "run_cold":
            reset_dir(dirs.cache)
        reset_dir(dirs.out)
        outcome = run_child(command(manifest, dirs.input_set(k), dirs.cache, THREADS, dirs.out),
                            os.path.join(dirs.logs, "command.log"))
        a, f, profiles = check_outputs(manifest, dirs.input_set(k), dirs.out, outcome.code,
                                       outcome.stdout, references[k])
        attempted += a
        failed += f
        if k not in nrmses:
            nrmses[k] = gene_nrmses(manifest, dirs.input_set(k), profiles)
        outcomes.append(outcome)

    walls = [o.wall_s for o in outcomes]
    scores = [s for k in sorted(nrmses) for s in nrmses[k]]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(o.cpu_s for o in outcomes), "s"),
        "peak_rss_mb": (statistics.median(o.rss_mb for o in outcomes), "MB"),
        "recovery_nrmse": (statistics.median(scores) if scores else float("nan"), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    p, p_value = tail_percentile(walls)
    detail = {"samples": len(walls), "setup_samples": len(setups), "nrmse_genes": len(scores)}
    if p is not None:
        detail["wall_s_p%d" % p] = p_value
    counts = {"setup_s": "median of %d setups" % len(setups),
              "recovery_nrmse": "median over %d genes" % len(scores)}
    lines = ["%-15s %.6g %s (%s)" % (name, value, unit,
                                     counts.get(name, "median of %d runs" % len(walls)))
             for name, (value, unit) in metrics.items()]
    if p is not None:
        lines.append("wall_s p%-7d %.6g s (%d samples beyond it)" % (
            p, p_value, int(len(walls) * (100 - p) / 100)))
    return metrics, attempted, failed, lines, detail


# ---------------------------------------------------------------------------
# Traced runs (--trace 1)
# ---------------------------------------------------------------------------

def load_spans(trace_path):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    return [e for e in events if e.get("ph") == "X"]


def self_times(spans):
    """Per span name: (count, total ms, self ms)."""
    ordered = sorted(spans, key=lambda e: (e["ts"], -e["dur"]))
    stack, child_time = [], {}
    for i, e in enumerate(ordered):
        while stack and ordered[stack[-1]]["ts"] + ordered[stack[-1]]["dur"] <= e["ts"]:
            stack.pop()
        if stack:
            child_time[stack[-1]] = child_time.get(stack[-1], 0.0) + e["dur"]
        stack.append(i)
    table = {}
    for i, e in enumerate(ordered):
        count, total, own = table.get(e["name"], (0, 0.0, 0.0))
        table[e["name"]] = (count + 1, total + e["dur"] / 1e3,
                            own + (e["dur"] - child_time.get(i, 0.0)) / 1e3)
    return table


def layer_metrics(spans, counters):
    def total(name):
        return sum(e["dur"] for e in spans if e["name"] == name) / 1e3

    root = [e for e in spans if e["name"] == "replay"][0]
    children = [e for e in spans if e is not root and e["ts"] >= root["ts"]
                and e["ts"] + e["dur"] <= root["ts"] + root["dur"]]
    # Direct children of the root never overlap one another (one thread).
    top = []
    for e in sorted(children, key=lambda e: (e["ts"], -e["dur"])):
        if not top or e["ts"] >= top[-1]["ts"] + top[-1]["dur"]:
            top.append(e)
    genes = sorted(e["dur"] / 1e3 for e in spans if e["name"] == "core.gene")
    appends = [e["dur"] / 1e3 for e in spans if e["name"] == "stream.append"]
    return {
        "population.kernel_ms": total("population.kernel"),
        "population.kernel_builds": counters["kernel_builds"],
        "population.kernel_disk_hits": counters["kernel_disk_hits"],
        "population.cells_simulated": counters["cells_simulated"],
        "core.cv_ms": total("core.cv"),
        "core.cv_fits": counters["cv_fits"],
        "core.cv_disqualified": counters["cv_disqualified"],
        "core.estimate_ms": total("core.estimate"),
        "numerics.qp_iterations": counters["qp_iterations"],
        "core.bound_genes": counters["bound_genes"] / len(genes) if genes else 0.0,
        "core.gene_ms_p50": statistics.median(genes) if genes else 0.0,
        "core.gene_ms_max": genes[-1] if genes else 0.0,
        "stream.open_ms": total("stream.open"),
        "stream.append_ms": total("stream.append"),
        "stream.timepoint_ms_max": max(appends) if appends else 0.0,
        "stream.updates": counters["stream_updates"],
        "stream.warm_accepts": counters["warm_accepts"],
        "stream.cold_solves": counters["cold_solves"],
        "stream.warm_accept_ratio": (counters["warm_accepts"] / counters["stream_updates"]
                                     if counters["stream_updates"] else 0.0),
        "core.design_ms": total("core.design"),
        "core.score_ms": total("core.score"),
        "io.read_ms": total("io.read"),
        "io.write_ms": total("io.write"),
        "trace.attributed": sum(e["dur"] for e in top) / root["dur"] if root["dur"] else 0.0,
    }


def traced(workload, seed, seconds, dirs, calibration):
    _, manifest, _ = setup(workload, seed, dirs)
    trace_path = os.path.join(dirs.base, "trace.json")
    cli_walls, replay_walls, per_iteration = [], [], []
    references = [{} for _ in range(INPUT_SETS)]
    attempted = failed = 0
    matches = []
    deadline = time.perf_counter() + seconds
    while len(cli_walls) < MIN_TRACED_ITERATIONS or time.perf_counter() < deadline:
        k = len(cli_walls) % INPUT_SETS
        inputs = dirs.input_set(k)
        if workload == "run_cold":
            reset_dir(dirs.cache)
        reset_dir(dirs.out)
        outcome = run_child(command(manifest, inputs, dirs.cache, 1, dirs.out),
                            os.path.join(dirs.logs, "command.log"))
        a, f, cli_profiles = check_outputs(manifest, inputs, dirs.out, outcome.code,
                                           outcome.stdout, references[k])
        attempted += a
        failed += f
        cli_walls.append(outcome.wall_s)

        if workload == "run_cold":
            reset_dir(dirs.cache)
        reset_dir(dirs.replay_out)
        replay = run_child(command(manifest, inputs, dirs.cache, 1, dirs.replay_out,
                                   replay=True, trace_path=trace_path),
                           os.path.join(dirs.logs, "replay.log"))
        if replay.code != 0:
            raise BenchError("replay failed (exit %d):\n%s" % (replay.code, replay.stdout[-2000:]))
        replay_walls.append(replay.wall_s)
        counters = json.loads(replay.stdout.strip().splitlines()[-1])
        failed += counters["failed_genes"] + counters["stream_errors"]
        _, _, replay_profiles = check_outputs(manifest, inputs, dirs.replay_out, 0, "", {})
        matches.append(replay_profiles == cli_profiles)
        spans = load_spans(trace_path)
        per_iteration.append((layer_metrics(spans, counters), spans))

    metrics = {name: statistics.median(m[name] for m, _ in per_iteration)
               for name in per_iteration[0][0]}
    metrics["trace.wall_ratio"] = statistics.median(replay_walls) / statistics.median(cli_walls)
    metrics["host.effective_parallelism"] = calibration["effective_parallelism"]
    metrics = {name: (metrics[name], PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}

    spans = per_iteration[-1][1]
    table = self_times(spans)
    root_ms = table["replay"][1]
    lines = ["self time of the last traced replay (%.1f ms, one thread):" % root_ms,
             "  %-20s %6s %12s %12s %7s" % ("span", "count", "total ms", "self ms", "self%")]
    for name, (count, total_ms, own_ms) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append("  %-20s %6d %12.3f %12.3f %6.1f%%" % (
            name, count, total_ms, own_ms, 100.0 * own_ms / root_ms))
    with open(os.path.join(dirs.base, "selftime.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    lines.append("replay profiles equal the command's: %d of %d iterations" % (
        sum(matches), len(matches)))
    lines.append("wrote %s and %s" % (os.path.relpath(trace_path, ROOT),
                                      os.path.relpath(os.path.join(dirs.base, "selftime.txt"),
                                                      ROOT)))
    lines += ["%-27s %.6g %s" % (name, value, unit) for name, (value, unit) in metrics.items()]
    return metrics, attempted, failed, lines, {"samples": len(cli_walls)}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    dirs = Dirs(workload)
    calibration = calibrate()
    if trace:
        metrics, attempted, failed, lines, detail = traced(workload, seed, seconds, dirs,
                                                           calibration)
    else:
        metrics, attempted, failed, lines, detail = timed(workload, seed, seconds, dirs)
    stamp = host_stamp(calibration)
    print("e2ebench %s seed=%d trace=%d" % (workload, seed, trace))
    print("host: " + json.dumps(stamp))
    for line in lines:
        print(line)
    print("operations: %d attempted, %d failed" % (attempted, failed))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(dirs.base, "result_seed%d_trace%d.json" % (seed, trace)), "w") as f:
        json.dump(dict(result, host=stamp, calibration=calibration, detail=detail,
                       workload=workload, seed=seed), f, indent=2)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        if args.self_test:
            sys.dont_write_bytecode = True  # leave nothing behind in e2ebench/
            import selftest
            return selftest.main(sys.modules[__name__], args.seed)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print("e2ebench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
