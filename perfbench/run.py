#!/usr/bin/env python3
"""End-to-end benchmark runner (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  Builds perfbench/ (and the library under
src/) into .bench_build/, times the workload's set-up in several short
probe processes, runs the workload in a process of its own, checks that
the counts which must repeat exactly agree with every earlier run of the
same binary, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "ssvsp_perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
COUNTS_FILE = os.path.join(BUILD_DIR, "exact-counts.json")
WORKLOADS = ("recheck-rs", "campaign-rws4", "wire-n4")
DEFAULT_SEED = 36  # wire-n4: replays scenarios/floodsetws_net_replay.txt
SETUP_PROBES = 19
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def child_env():
    # The library reads SSVSP_* knobs (replay tripwire, progress lines,
    # log level) from the environment; the benchmark measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("SSVSP_")}


def build():
    """Configure once, then bring the binary up to date (a no-op after the
    first run of a checkout).  Build output goes to stderr."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no library sources under src/; run from the repository root")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "ssvsp_perfbench", "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))


def spawn(args, timeout):
    """Runs the binary in its own session; returns its stdout.  The spawn
    stamp is the start of the workload's set-up interval."""
    cmd = [BINARY, f"--spawn-ns={time.monotonic_ns()}"] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(args)} did not finish within {timeout} s")
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited with {proc.returncode}")
    return out


def binary_digest():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_exact_counts(workload, counts):
    """The counts that must repeat exactly (orbits, scripts, serial engine
    counters, certificate windows, campaign records, wire rounds and
    suspicions) are stored per workload the first time a binary reports
    them; every later run of the same binary must report the same values.
    Returns the names that disagree."""
    digest = binary_digest()
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        stored = {}
        if os.path.isfile(COUNTS_FILE):
            with open(COUNTS_FILE) as f:
                stored = json.load(f)
        entry = stored.get(workload)
        if entry is None or entry["binary"] != digest:
            entry = {"binary": digest, "counts": {}}
        known = entry["counts"]
        mismatched = sorted(name for name, value in counts.items()
                            if name in known and known[name] != value)
        for name, value in counts.items():
            known.setdefault(name, value)
        stored[workload] = entry
        with open(COUNTS_FILE + ".tmp", "w") as f:
            json.dump(stored, f, indent=1, sort_keys=True)
        os.replace(COUNTS_FILE + ".tmp", COUNTS_FILE)
    for name in mismatched:
        print(f"perfbench: exact count {name} = {counts[name]} differs "
              f"from an earlier run of this build ({known[name]})",
              file=sys.stderr)
    return mismatched


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"] if opts.seconds is None else opts.seconds
    declared = bench["per_layer" if opts.trace else "end_to_end"]

    build()
    workload_args = [f"--workload={opts.workload}", "--root=."]
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(float(spawn(workload_args + ["--setup-only"], 60)))
    lines = spawn(workload_args + [
        f"--seed={opts.seed}", f"--seconds={seconds}",
        f"--trace={opts.trace}", f"--work-dir={WORK_DIR}"],
        RUN_TIMEOUT_S).splitlines()
    if not lines:
        fail("the workload printed nothing")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    setups.append(result["setup_s"])
    measured = dict(result["metrics"])
    if not opts.trace:
        measured["setup_s"] = {"value": statistics.median(setups),
                               "unit": "s"}

    correct = result["correct"]
    if check_exact_counts(opts.workload, result["exact"]):
        correct = False

    metrics = {}
    for m in declared:
        got = measured.pop(m["name"], None)
        if got is None and opts.trace:
            # A layer this workload never enters.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            fail(f"{opts.workload} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, declared in "
                 f"{m['unit']}")
        metrics[m["name"]] = got
        print(f"{m['name']:<28} {got['value']:>14.6g} {m['unit']}")
    if measured:
        fail("undeclared metrics: " + ", ".join(sorted(measured)))

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
