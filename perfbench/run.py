#!/usr/bin/env python3
"""Repository benchmark driver (see perfbench/README.md).

    python3 perfbench/run.py --workload vcc_sweep --seed 1 --seconds 15 --trace 0

Builds perfbench/ (and the iraw library through the root CMakeLists)
into .bench_build/perfbench, then:

  --trace 0  runs the correctness gate, the deterministic accuracy
             metrics, and fresh-process timed executions of the
             workload for --seconds; prints every end-to-end metric.
  --trace 1  runs the gate, a few untraced executions, and one traced
             execution with per-layer probes; prints every per-layer
             metric and writes one Chrome trace.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A full record (raw per-execution
values, quartiles, provenance) goes to .bench_build/perfbench/results/
for perfbench/compare.py.  Exits nonzero when the build fails or any
correctness check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Runner threads of the timed executions, and the thread count of the
# cross-check execution whose digest must match them.
WORKLOADS = {
    "vcc_sweep": (1, 2),
    "powercap_adapt": (1, 2),
    "chip_population": (2, 1),
}
MIN_EXECUTIONS = 3
MAX_EXECUTIONS = 40
# Stop starting timed executions past this point so the whole run,
# cross-check included, ends well inside 180 s.
HARD_STOP_S = 100.0
CALL_TIMEOUT_S = 150.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulation.hh")):
        log("no simulator sources next to perfbench/; nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT).returncode
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return False
    return True


def call(mode, *args):
    """One perfbench process; its JSON output, or None on failure."""
    cmd = [BINARY, mode] + list(args)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CALL_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"failed ({proc.returncode}): {' '.join(cmd)}")
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def source_digest():
    """SHA-256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(workload, seed, seconds, trace):
    manifest_path = os.path.join(BUILD_DIR, "manifest.json")
    manifest = {}
    if call("manifest", f"path={manifest_path}") is not None:
        with open(manifest_path) as f:
            manifest = json.load(f)
    host = dict(manifest.get("host", {}))
    host.pop("pid", None)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or None
    return {
        "host": host,
        "build": manifest.get("build", {}),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


class Tally:
    """Attempted/failed accounting of every check and execution."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            log(f"FAILED: {what}")
        return ok


def gate(tally):
    golden_dir = os.path.join(ROOT, "tests", "golden")
    result = call("gate", f"golden={golden_dir}") or {}
    for name in ("fig11b_quick", "adapt_powercap_quick",
                 "vccmin_cdf_chips2"):
        tally.check(result.get(name) is True,
                    f"quick-size output differs from tests/golden/{name}.txt")
    tally.check(result.get("powercap_study_copy") is True,
                "perfbench's powercap study differs from "
                "sim::runPowercapStudy at quick size")


def executions(tally, workload, seed, threads, count, seconds):
    """Fresh-process executions: at least `count`, then more until
    `seconds` have passed.  All must agree on the output digest."""
    runs = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(runs) >= count and (elapsed >= seconds or
                                   len(runs) >= MAX_EXECUTIONS):
            break
        if elapsed >= HARD_STOP_S:
            break
        r = call("run", f"workload={workload}", f"seed={seed}",
                 f"threads={threads}")
        # A failed execution fails the run; retrying a deterministic
        # simulator would only fail again.
        if not tally.check(r is not None,
                           f"{workload} execution exited nonzero"):
            break
        runs.append(r)
    if len({r["digest"] for r in runs}) > 1:
        tally.check(False, f"{workload} outputs differ between executions")
    return runs


def summarize(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(tally, workload, seed, seconds):
    threads, check_threads = WORKLOADS[workload]
    gate(tally)
    accuracy = call("accuracy")
    tally.check(accuracy is not None, "accuracy run exited nonzero")
    runs = executions(tally, workload, seed, threads, MIN_EXECUTIONS,
                      seconds)
    check = call("run", f"workload={workload}", f"seed={seed}",
                 f"threads={check_threads}")
    tally.check(check is not None and bool(runs) and
                check["digest"] == runs[0]["digest"],
                f"{workload} output at threads={check_threads} differs "
                f"from threads={threads}")
    if not runs or accuracy is None:
        return None, runs
    series = {
        "wall_s": [r["wall_s"] for r in runs],
        "sim_minsts_per_s": [r["represented_insts"] / 1e6 / r["wall_s"]
                             for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    stats = {name: summarize(v) for name, v in series.items()}
    values = {name: s["median"] for name, s in stats.items()}
    values["pass_frac"] = (tally.attempted - tally.failed) / tally.attempted
    for name in ("paper_speedup_err_pp", "oracle_gap_pct",
                 "cap_steady_violations"):
        values[name] = accuracy[name]
    return {"values": values, "stats": stats, "accuracy": accuracy}, runs


def per_layer(tally, workload, seed):
    threads, _ = WORKLOADS[workload]
    gate(tally)
    runs = executions(tally, workload, seed, threads, MIN_EXECUTIONS, 0.0)
    trace_dir = os.path.join(BUILD_DIR, "traces")
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
    layers = call("layers", f"workload={workload}", f"seed={seed}",
                  f"chrometrace={trace_path}", f"workdir={work_dir}")
    tally.check(layers is not None,
                f"{workload} traced run exited nonzero (a probe's "
                "equivalence check failed or it crashed)")
    if layers is None or not runs:
        return None, runs
    untraced = statistics.median(r["wall_s"] for r in runs)
    traced = layers.pop("workload.traced_wall_s")
    layers["obs.trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    log(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
    return {"values": layers, "chrome_trace": trace_path}, runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(BUILD_DIR, "results"),
                        help="directory for the full result record")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not build():
        return 2

    tally = Tally()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        outcome, runs = per_layer(tally, args.workload, args.seed)
    else:
        outcome, runs = end_to_end(tally, args.workload, args.seed,
                                   args.seconds)
    values = outcome["values"] if outcome else {}
    metrics = {}
    for m in wanted:
        if tally.check(m["name"] in values, f"metric {m['name']} missing"):
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record = {
        "provenance": provenance(args.workload, args.seed, args.seconds,
                                 args.trace),
        "executions": runs,
        "outcome": outcome,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": metrics,
    }
    os.makedirs(args.results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = os.path.join(
        args.results,
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)

    stats = (outcome or {}).get("stats", {})
    for name, m in metrics.items():
        line = f"  {name} = {m['value']:.6g} {m['unit']}"
        if name in stats:
            s = stats[name]
            line += (f"  (median of {s['n']}; quartiles {s['q1']:.6g}"
                     f"..{s['q3']:.6g}; max {s['max']:.6g})")
        print(line)
    print(f"  record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
