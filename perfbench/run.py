#!/usr/bin/env python3
"""Build and run the taxonomy serving-stack benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <interactive|batch> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
library from ../src) into .bench_build/; later calls only re-check the
build.  Build output goes to stderr, so the last stdout line is always
the run's JSON result.  A run that hangs is killed after RUN_TIMEOUT_S
seconds; a checkout without the library sources fails the build and
exits non-zero without printing a result.

--selftest runs every workload briefly in both modes and checks that
(1) every metric named in BENCHMARK.json is printed with its unit,
(2) equal seeds give equal request-fingerprint sequences and different
seeds different ones, and (3) the traced run emits every per-layer name.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("interactive", "batch")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def run_build_step(command):
    subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=BUILD_TIMEOUT_S)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")) and \
            not os.path.isfile(os.path.join(BUILD, "Makefile")):
        shutil.rmtree(BUILD, ignore_errors=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_build_step(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs])


def describe_source():
    """Git commit when the checkout is a git repository, plus a digest of
    the library sources (a source export is not a repository)."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return commit, digest.hexdigest()[:12]


def run_binary(arguments):
    """Run the benchmark binary; returns (exit code, stdout)."""
    process = subprocess.Popen([BINARY] + arguments, cwd=ROOT,
                               stdout=subprocess.PIPE, text=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        log("run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 124, ""
    return process.returncode, out


def last_json(out):
    lines = [line for line in out.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in WORKLOADS:
        seqs = {}
        for seed in (1, 1, 2):
            code, out = run_binary(["--fingerprints", "64", "--workload",
                                    workload, "--seed", str(seed)])
            if code != 0:
                problems.append("%s: fingerprint run failed" % workload)
            seqs.setdefault(seed, []).append(out.split())
        if seqs[1][0] != seqs[1][1] or not seqs[1][0]:
            problems.append("%s: seed 1 fingerprints differ between runs"
                            % workload)
        if seqs[1][0] == seqs[2][0]:
            problems.append("%s: seeds 1 and 2 give the same fingerprints"
                            % workload)
        for trace, table in (("0", spec["end_to_end"]),
                             ("1", spec["per_layer"])):
            code, out = run_binary(["--workload", workload, "--seed", "1",
                                    "--seconds", "2", "--trace", trace])
            result = last_json(out) if code == 0 else None
            if result is None:
                problems.append("%s trace=%s: exit %d" % (workload, trace,
                                                          code))
                continue
            metrics = result["metrics"]
            names = [m["name"] for m in table]
            if sorted(metrics) != sorted(names):
                problems.append("%s trace=%s: metric names differ from "
                                "BENCHMARK.json: %s" % (
                                    workload, trace,
                                    sorted(set(metrics) ^ set(names))))
            for m in table:
                got = metrics.get(m["name"], {}).get("unit")
                if got != m["unit"]:
                    problems.append("%s: %s unit %r, BENCHMARK.json says %r"
                                    % (workload, m["name"], got, m["unit"]))
                if trace == "0" and not metrics.get(m["name"], {}).get(
                        "value", 0) > 0:
                    problems.append("%s: end-to-end %s is not positive"
                                    % (workload, m["name"]))
                if m["name"] not in out.split("{")[0]:
                    problems.append("%s: %s missing from the printed lines"
                                    % (workload, m["name"]))
            for headline in ("setup_s", "failed_share", "interactive_p50_us",
                             "interactive_ok_per_s", "batch_cells_per_s",
                             "batch_trials_per_s", "batch_p50_ms",
                             "peak_rss_mb"):
                if headline not in out:
                    problems.append("%s: headline metric %s not printed"
                                    % (workload, headline))
            if not result["correct"] or result["failed"]:
                problems.append("%s trace=%s: correct=%s failed=%s" % (
                    workload, trace, result["correct"], result["failed"]))
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log("build failed: %s" % error)
        return 2
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    commit, digest = describe_source()
    code, out = run_binary(["--workload", args.workload, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", args.trace, "--commit", commit,
                            "--src-digest", digest])
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        log("%s run exited with code %d" % (args.workload, code))
    return code


if __name__ == "__main__":
    sys.exit(main())
