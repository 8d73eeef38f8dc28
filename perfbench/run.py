#!/usr/bin/env python3
"""Repository benchmark: builds the workload runner from source, runs one
workload, checks its outputs, and prints the result.

    python3 perfbench/run.py --workload exact_sweep|hybrid_sa|served_mix \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test     # short mode + gate self-test
    python3 perfbench/run.py --pin           # recompute perfbench/digests.json

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) as a Release build of perfbench/CMakeLists.txt. Stdout ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}, where
metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1). Above it, every metric is printed by name
and unit, and the full result with its environment is written to
<build>/results/.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.relpath(HERE)
WORKLOADS = ("exact_sweep", "hybrid_sa", "served_mix")
DEFAULT_SEED = 1  # the seed perfbench/digests.json was pinned at
RUN_LIMIT_S = 170  # a run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds the runner and dpserved; returns the
    build directory or None on failure."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, *gen,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target",
           "perfbench", "dpserved"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out


def environment(build_info, seed, traced):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # Stop git at the checkout root so it never reads an enclosing repo.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, env=env, timeout=10)
        git = describe.stdout.strip() if describe.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        git = ""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "machine": platform.machine(),
        "compiler": build_info.get("compiler"),
        "compiler_version": build_info.get("compiler_version"),
        "build_type": build_info.get("build_type"),
        "build_flags": build_info.get("flags"),
        "ndebug": build_info.get("ndebug"),
        "git_describe": git or "unknown (not a git checkout)",
        "seed": seed,
        "traced": traced,
    }


def run_workload(out, workload, seed, seconds, trace, extra=(),
                 limit=RUN_LIMIT_S):
    """Runs the runner in its own process group (so a timeout also stops
    the dpserved it spawned); returns its parsed result or None."""
    work = os.path.join(out, "run")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--pins", os.path.join(BENCH_DIR, "digests.json"),
           "--work-dir", work,
           "--dpserved", os.path.join(out, "dpserved"), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"perfbench: {workload} did not finish within {limit} s")
        return None
    if proc.returncode != 0:
        log(f"perfbench: runner exited with {proc.returncode}")
        return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("perfbench: runner printed no result")
        return None


def declared(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def select(result, trace):
    """The declared metrics of this mode, or None when one is missing or
    carries another unit."""
    out = {}
    for m in declared(trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"perfbench: metric {m['name']} [{m['unit']}] missing")
            return None
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def print_table(workload, result, metrics, env):
    info = result.get("info", {})
    print(f"== {workload} (seed {env['seed']}, traced {env['traced']}) ==")
    print(f"   env: nproc {env['nproc']}, {env['cpu_model']}, "
          f"{env['compiler']} {env['build_type']} [{env['build_flags']}], "
          f"{env['git_describe']}")
    for name, m in metrics.items():
        print(f"   {name:<36} {m['value']:>16.6g} {m['unit']}")
    # What throughput_per_s stands for on each workload, the served ladder
    # result, and the raw figures before scaling to the reference speed.
    units = {"faults_per_s": "faults/s", "saturation_rps": "req/s",
             "max_rps_within_slo": "req/s"}
    for alias, unit in units.items():
        if alias in info:
            print(f"   {alias:<36} {info[alias]:>16.6g} {unit}")
    for key, value in info.items():
        if key.startswith("raw_"):
            print(f"   {key:<36} {value:>16.6g} (unscaled)")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"   {'failed_frac':<36} {frac:>16.6g} frac "
          f"({result['failed']} of {result['attempted']})")
    if "latency_samples" in info:
        print(f"   latency samples: {info['latency_samples']} "
              f"({info.get('latency_unit', '')})")
    for p in result.get("problems", []):
        print(f"   problem: {p}")


def run_once(args):
    out = build()
    if out is None:
        log("perfbench: build failed")
        return 1
    start = time.monotonic()
    result = run_workload(out, args.workload, args.seed, args.seconds,
                          args.trace)
    if result is None:
        return 1
    metrics = select(result, args.trace)
    if metrics is None:
        return 1
    env = environment(result.get("info", {}).get("build", {}), args.seed,
                      bool(args.trace))
    print_table(args.workload, result, metrics, env)
    doc = {"schema": "perfbench.result.v1", "workload": args.workload,
           "seconds": args.seconds, "environment": env,
           "wall_s": time.monotonic() - start, "result": result}
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


def self_test():
    """Short mode: every declared metric is emitted with its unit on every
    workload in both modes, the gate passes on the pinned outputs, and an
    injected digest mismatch trips it and fails every operation."""
    out = build()
    if out is None:
        log("perfbench: build failed")
        return 1
    failures = []

    def check(cond, what):
        print(f"[self-test] {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(out, workload, DEFAULT_SEED, 2, trace)
            check(r is not None and select(r, trace) is not None,
                  f"{workload} trace {trace}: every declared metric emitted")
            check(r is not None and r["correct"] and r["failed"] == 0
                  and r["attempted"] > 0,
                  f"{workload} trace {trace}: correct, nothing failed")
        r = run_workload(out, workload, DEFAULT_SEED, 2, 0,
                         ["--inject-mismatch"])
        check(r is not None and not r["correct"] and r["attempted"] > 0
              and r["failed"] == r["attempted"],
              f"{workload}: injected digest mismatch fails every operation")
    r = run_workload(out, "exact_sweep", DEFAULT_SEED + 1, 2, 0)
    check(r is not None and r["correct"],
          "exact_sweep at another seed: jobs-invariance check passes")
    print(f"[self-test] {'PASS' if not failures else 'FAIL'}")
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--pin", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.pin:
        out = build()
        if out is None:
            return 1
        return subprocess.run([os.path.join(out, "perfbench"), "--pin",
                               os.path.join(BENCH_DIR, "digests.json")]
                              ).returncode
    if args.workload is None or args.seconds <= 0 or args.seed < 0:
        p.print_usage(sys.stderr)
        return 2
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
