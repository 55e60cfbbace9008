#!/usr/bin/env python3
"""End-to-end benchmark for KAST: build the benchmark program, run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_routed --seed 1 --seconds 15 --trace 0

Workloads: serve_routed, ingest_mixed, cluster_kast (see perfbench/README.md).
kast_perfbench is configured and built in Release mode under .bench_build/
on first use. It prints every metric it measured as a "metric <name>
<value> <unit>" line; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics, whose metrics are
those BENCHMARK.json lists: its end_to_end set with --trace 0, its
per_layer set with --trace 1 (spans are then written to
.bench_build/perfbench/spans/). A listed end-to-end metric the run did
not produce, or produced in another unit, makes the result incorrect; a
per-layer metric of a layer the workload does not exercise reads 0.

--record FILE appends the result, stamped with the git SHA, a dirty flag,
the build type and nproc, to FILE as one JSON line. Recording is refused
(exit 3) unless the checkout is a git work tree with no uncommitted
changes and kast_perfbench was built in Release mode.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_routed", "ingest_mixed", "cluster_kast")
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    sys.stderr.write("perfbench: %s\n" % message)
    return code


def build():
    """Configures and builds kast_perfbench; returns its path or None."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                return None
        if subprocess.call(["cmake", "--build", BUILD, "-j", "4",
                            "--target", "kast_perfbench"],
                           stdout=log, stderr=log) != 0:
            return None
    return os.path.join(BUILD, "kast_perfbench")


def result_metrics(spec, measured, traced):
    """The result line's metrics, in BENCHMARK.json's order, and whether
    every one of them was measured as listed."""
    complete = True
    metrics = {}
    for entry in spec["per_layer" if traced else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        value, measured_unit = measured.get(name, (0.0, unit))
        if (name not in measured and not traced) or measured_unit != unit:
            sys.stderr.write("perfbench: metric %s %s\n"
                             % (name, "missing" if name not in measured
                                else "in %s, not %s" % (measured_unit, unit)))
            complete = False
        metrics[name] = {"value": value, "unit": unit}
    return metrics, complete


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", None) outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, env=env,
                                check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None
    return sha, bool(status.strip())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", metavar="FILE")
    args = parser.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1", 2)

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no KAST sources beside perfbench/ (expected %s)"
                    % os.path.join(ROOT, "src"), 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        return fail("build failed; see %s"
                    % os.path.join(BUILD, "build.log"))

    sha, dirty = git_state()
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD, "work"),
               "--spans", os.path.join(spans_dir, "%s-%d.jsonl"
                                       % (args.workload, args.seed)),
               "--sha", sha]
    if dirty is not None:
        command += ["--dirty", "1" if dirty else "0"]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        return fail("kast_perfbench exited with code %d" % run.returncode)
    measured, stamp, outcome = {}, None, None
    for line in run.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            measured[name] = (float(value), unit)
        elif kind == "provenance":
            stamp = json.loads(rest)
        elif kind == "outcome":
            outcome = json.loads(rest)
    if stamp is None or outcome is None:
        return fail("kast_perfbench printed no provenance or outcome line")
    metrics, complete = result_metrics(spec, measured, args.trace == 1)
    result = dict(outcome, metrics=metrics)
    result["correct"] = outcome["correct"] and complete
    sys.stdout.write(run.stdout)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()

    if args.record:
        if stamp["build_type"] != "Release":
            return fail("not recording: %s build" % stamp["build_type"], 3)
        if stamp["sha"] == "unknown" or stamp["dirty"] is not False:
            return fail("not recording: checkout is not a clean git tree", 3)
        with open(args.record, "a") as out:
            out.write(json.dumps({"provenance": stamp,
                                  "trace": args.trace,
                                  "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
