#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tiered-zipf [--seed N]
        [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--trace 1]
    python3 perfbench/run.py --self-test

The first call configures and builds the engine library and the
benchmark runner into $CARGO_TARGET_DIR (default .bench_build). Each
workload runs in its own process. Its report goes to standard output;
the last line is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics, or with --trace 1 the per-layer
ones). The full result, stamped with the commit, compiler, flags, SIMD
level, CPU and the workload parameters, is written to
<build dir>/results/<workload>-seed<N>-trace<T>.json, with the spans
of a traced run beside it. The exit status is non-zero when a
correctness gate fails or the build does.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tiered-zipf", "restore-ingest"]
# A workload process still running after this long is killed; the run
# then fails without a result.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configure once, then build @p targets; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("engine sources not found next to perfbench/ "
                           "(expected ../CMakeLists.txt and ../src)")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                    "--target"] + targets, check=True, stdout=sys.stderr)
    return bdir


def git_stamp():
    """(sha, dirty) of the checkout, or 'unknown' outside a git repo."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=True,
                                timeout=10).stdout
        return sha, "1" if status.strip() else "0"
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"


def benchmark_spec():
    """BENCHMARK.json at the repository root, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def declared_metrics():
    """(end-to-end, per-layer) metric names, or None without the file."""
    spec = benchmark_spec()
    if spec is None:
        return None
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def declared_run_seconds():
    spec = benchmark_spec()
    return 40 if spec is None else spec["run_seconds"]


def result_line(result, trace, names=None):
    """The summary object printed as the last line, from a result file."""
    metrics = result["per_layer" if trace else "end_to_end"]
    if names is None:
        names = list(metrics)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError("result lacks declared metrics: " +
                           ", ".join(missing))
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }


def result_path(bdir, workload, seed, trace):
    return os.path.join(bdir, "results",
                        f"{workload}-seed{seed}-trace{int(trace)}.json")


def run_workload(bdir, workload, seed, seconds, trace):
    """Run one workload in its own process; returns (exit code, result)."""
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    out = result_path(bdir, workload, "default" if seed is None else seed,
                      trace)
    if os.path.exists(out):
        os.remove(out)
    sha, dirty = git_stamp()
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--result", out, "--work-dir", os.path.join(bdir, "work"),
           "--git-sha", sha, "--git-dirty", dirty]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if not os.path.isfile(out):
        return proc.returncode or 1, None
    with open(out) as f:
        return proc.returncode, json.load(f)


def print_overhead(bdir, workload, seed, traced):
    """Traced minus untraced end-to-end figures, when both exist."""
    plain = result_path(bdir, workload, "default" if seed is None else seed,
                        False)
    if not os.path.isfile(plain):
        print(f"tracing overhead: run {workload} untraced with the same "
              "seed to compare")
        return
    with open(plain) as f:
        base = json.load(f)["end_to_end"]
    layers = traced["per_layer"]
    for name in ("qps", "p50_ms", "p99_ms"):
        t, u = layers["traced." + name]["value"], base[name]["value"]
        pct = 100.0 * (t - u) / u if u else float("nan")
        print(f"tracing overhead {workload} {name}: traced {t:.4g} - "
              f"untraced {u:.4g} = {t - u:+.4g} ({pct:+.1f}%)")


def self_test():
    bdir = build(["perfbench", "perfbench_tests"])
    rc = subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode
    sample = {"correct": True, "attempted": 3, "failed": 0,
              "end_to_end": {"p99_ms": {"value": 1 / 3, "unit": "ms",
                                        "samples": 2000}},
              "per_layer": {}}
    line = json.dumps(result_line(json.loads(json.dumps(sample)), False))
    back = json.loads(line)
    ok = back["metrics"]["p99_ms"]["value"] == 1 / 3 and back["attempted"] == 3
    print("result line round-trip:", "ok" if ok else "FAILED")
    return 0 if rc == 0 and ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")

    declared = declared_metrics()
    seconds = args.seconds
    if seconds is None:
        seconds = declared_run_seconds()
    try:
        bdir = build(["perfbench"])
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    if args.workload != "all":
        rc, result = run_workload(bdir, args.workload, args.seed, seconds,
                                  args.trace == 1)
        if result is None:
            log(f"perfbench: {args.workload} produced no result (exit {rc})")
            return rc or 1
        if args.trace:
            print_overhead(bdir, args.workload, args.seed, result)
        names = None if declared is None else declared[args.trace]
        print(json.dumps(result_line(result, args.trace == 1, names)))
        return rc

    # Every workload, each in its own process; with --trace 1 an
    # untraced run precedes each traced one so the overhead shows.
    worst, summary = 0, {}
    for wl in WORKLOADS:
        passes = [False, True] if args.trace else [False]
        for trace in passes:
            rc, result = run_workload(bdir, wl, args.seed, seconds, trace)
            worst = worst or rc or (1 if result is None else 0)
            if result is None:
                continue
            if trace:
                print_overhead(bdir, wl, args.seed, result)
            names = None if declared is None else declared[int(trace)]
            summary[f"{wl}{'.traced' if trace else ''}"] = \
                result_line(result, trace, names)
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
