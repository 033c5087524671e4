#!/usr/bin/env python3
"""Build and run the FLightNN end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark binary is built from this checkout's sources into
.bench_build/ (CMake, Release) on first use; later runs only re-check the
build. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. `--workload all` runs every workload in turn.
The exit code is nonzero if the build fails or any operation's logits
differ from the expected ones; a rejected or thrown request is counted in
"failed" without failing the run.

A run is split into SUBRUNS fresh processes of seconds/SUBRUNS each. On a
shared VM a process's speed depends on where its memory lands and on what
its neighbours do at the time, so the end-to-end metrics are computed from
the raw samples of all of them (medians over set-ups and measurement
windows), and each per-layer metric is the median over the processes.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "flightnn_perfbench")
WORKLOADS = ["offline_b32", "serve_open", "cold_start"]
SUBRUNS = 8
# Operations a window needs before a latency percentile is taken per window
# (10 samples beyond p90).
MIN_WINDOW = 100


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "flightnn_perfbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def percentile(values, p):
    """Nearest-rank percentile, p in [0, 1]."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(p * len(ordered))))
    return ordered[rank - 1]


def windowed_percentile(segments, p):
    """Latency percentile over windows of at least MIN_WINDOW operations.

    When every measurement segment holds that many operations, take each
    segment's own percentile and report the median over segments, so a few
    seconds of host stall move one window, not the result. Otherwise pool
    all operations of the run.
    """
    if all(len(s["latency_ms"]) >= MIN_WINDOW for s in segments):
        return statistics.median(percentile(s["latency_ms"], p)
                                 for s in segments)
    return percentile([x for s in segments for x in s["latency_ms"]], p)


def end_to_end(samples):
    """End-to-end metrics from the raw samples of every sub-run."""
    segments = [seg for s in samples for seg in s["segments"]]

    def median_of_medians(key):
        return statistics.median(statistics.median(group)
                                 for s in samples for group in s[key])

    return {
        "throughput_img_s": (sum(s["images"] for s in segments) /
                             sum(s["seconds"] for s in segments), "img/s"),
        "latency_p50_ms": (windowed_percentile(segments, 0.50), "ms"),
        "latency_p90_ms": (windowed_percentile(segments, 0.90), "ms"),
        "cold_start_ms": (median_of_medians("cold_start_ms"), "ms"),
        "export_ms": (median_of_medians("export_ms"), "ms"),
        "setup_s": (statistics.median(x for s in samples
                                      for x in s["setup_s"]), "s"),
        "peak_rss_mib": (statistics.median(s["peak_rss_mib"]
                                           for s in samples), "MiB"),
    }


def per_layer(results):
    """Per-layer metrics: the median of each over the sub-runs."""
    return {name: (statistics.median(r["metrics"][name]["value"]
                                     for r in results), metric["unit"])
            for name, metric in results[0]["metrics"].items()}


def run_workload(workload, seed, seconds, trace):
    """Run one workload as SUBRUNS processes; print the merged result."""
    results = []
    for sub in range(SUBRUNS):
        run = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds / SUBRUNS), "--trace", str(trace),
             "--work-dir", os.path.join(BUILD, "work", f"sub{sub}")],
            stdout=subprocess.PIPE, text=True)
        lines = run.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            print(f"perfbench: {workload} sub-run {sub} printed no result "
                  f"(exit {run.returncode})", file=sys.stderr)
            return 1
    metrics = (per_layer(results) if trace else
               end_to_end([r["samples"] for r in results]))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"== {workload}, seed {seed}: {SUBRUNS} sub-runs ==")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    print(f"failed_share {failed / max(1, attempted):.6f} share "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status = run_workload(workload, args.seed, args.seconds,
                              args.trace) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
