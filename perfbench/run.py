#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the repository root. The first run configures and builds the
measuring program (perfbench/CMakeLists.txt, against ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
Each workload runs in its own process. The last stdout line of a
single-workload run is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. With --workload all, every workload runs in turn and
every metric is printed by name with its unit. The exit status is nonzero
when the build fails or any correctness check fails. --test builds and runs
the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (full log: %s)" % log_path, 3)
    return os.path.join(out, target)


def source_identity():
    """Git revision and dirty state when the checkout is a repository, plus a
    digest of the program and benchmark sources, which identifies the code
    measured even in a checkout without git metadata."""
    def git(*args):
        try:
            r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                               timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_rev": rev or "unknown", "git_dirty": bool(status) if rev else None,
            "source_sha256": digest.hexdigest()[:16],
            "modeled_clock": "modeled numbers come from the simulator's cost model; the "
                             "repository holds no hardware reference results, so no model "
                             "error is given"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, spec, workload, seed, seconds, trace, threads, echo):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", os.path.join(build_dir(), "traces")]
    if threads:
        cmd += ["--threads", str(threads)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 5)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing (exit %d)" % (workload, proc.returncode), 4)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("%s: last line is not a result: %s" % (workload, lines[-1]), 4)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(names):
        fail("%s: printed metrics do not match BENCHMARK.json" % workload, 4)
    if echo:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="host threads (default: min(nproc, 4))")
    ap.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = ap.parse_args()

    if args.test:
        binary = build("perfbench_tests")
        sys.exit(subprocess.run([binary], cwd=ROOT).returncode)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        ap.error("unknown workload %r (choose from: %s, all)" %
                 (args.workload, ", ".join(workloads)))
    binary = build("perfbench")
    context = source_identity()
    context["trace"] = args.trace

    if args.workload != "all":
        code, result = run_workload(binary, spec, args.workload, args.seed, args.seconds,
                                    args.trace, args.threads, echo=True)
        print("source: " + json.dumps(context))
        print(json.dumps(result))
        sys.exit(code)

    print("source: " + json.dumps(context))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    worst, results = 0, {}
    for workload in workloads:
        code, result = run_workload(binary, spec, workload, args.seed, args.seconds,
                                    args.trace, args.threads, echo=False)
        worst = max(worst, code)
        results[workload] = result
        print("== %s: correct=%s attempted=%d failed=%d" %
              (workload, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("   %-36s %18.6g %s" % (name, m["value"], units[name]))
    print(json.dumps(results))
    sys.exit(worst)


if __name__ == "__main__":
    main()
