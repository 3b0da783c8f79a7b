#!/usr/bin/env python3
"""Build and run the LDP collection-service benchmark.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload longit-grr --seed 1 --seconds 10 --trace 0

builds perfbench/ (Release, into $CARGO_TARGET_DIR or .bench_build), runs
the ldpr_perfbench binary, and passes its output through: the last line is
one JSON object with "correct", "attempted", "failed" and "metrics" (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
The exit code is the binary's: nonzero when the output check fails.

Self-test:

    python3 perfbench/run.py --self-test

runs every workload at smoke scale, traced and untraced, checks that each
run passes its output check and prints exactly the metrics BENCHMARK.json
names, with their units, and checks that a deliberately wrong reference
makes the run fail.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("longit-grr", "anon-oue", "multidim-rsrfd")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds ldpr_perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found under " + ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "ldpr_perfbench", "-j", jobs],
    ):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(command))
    return os.path.join(out, "ldpr_perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        top, commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return commit
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, extra=(), capture=False):
    """Runs the binary from the checkout root; returns (exit code, stdout)."""
    sockets = os.path.join(build_dir(), "sock")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(sockets, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        # Relative, so the socket paths stay within sun_path's 108 bytes.
        "--socket-dir", os.path.relpath(sockets, ROOT),
        "--trace-out", os.path.join(traces, "%s-seed%s.jsonl" % (workload, seed)),
        "--commit", source_id(),
    ] + list(extra)
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE if capture else None,
                                text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return result.returncode, result.stdout or ""


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            code, stdout = run(binary, workload, 1, 1, trace, ["--smoke"], True)
            result = last_json(stdout)
            if code != 0 or not result or not result["correct"] or result["failed"]:
                problems.append("%s: exit %d, result %s" % (label, code, result))
                continue
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            if got != expected[trace]:
                problems.append("%s: metrics %s differ from BENCHMARK.json"
                                % (label, got))
            print("self-test: %s passed, %d metrics" % (label, len(got)))
        code, stdout = run(binary, workload, 1, 1, 0,
                           ["--smoke", "--corrupt-reference"], True)
        result = last_json(stdout)
        if code == 0 or not result or result["correct"]:
            problems.append("%s: a wrong reference was not caught" % workload)
        else:
            print("self-test: %s wrong reference caught" % workload)
    for problem in problems:
        print("self-test FAILED: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
