#!/usr/bin/env python3
"""End-to-end benchmark of the partition service, the exhaustive oracle and
the fleet.

    python3 e2ebench/run.py --workload svc_hot --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py compare RECORD_A.json RECORD_B.json
    python3 e2ebench/run.py test

A run builds the benchmark from the checkout's sources (CMake, into
.bench_build/ or $CARGO_TARGET_DIR), runs one workload, and passes the
program's output through.  Its last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the full record (host
fingerprint, seed, every figure, latency distribution) is written to
<build>/records/.  `compare` refuses to compare records whose host
fingerprints differ.  `test` builds and runs the harness's unit tests.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("svc_hot", "svc_churn", "sweep", "fleet_zipf")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the netpart sources (src/) are not in this checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, target)


def parse_run_args(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if not flag.startswith("--"):
            fail("unexpected argument " + flag, 2)
        value = next(it, None)
        if value is None:
            fail("missing value for " + flag, 2)
        args[flag[2:]] = value
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in args:
            fail("missing --" + key, 2)
    if args["workload"] not in WORKLOADS:
        fail("unknown workload " + args["workload"], 2)
    if args["trace"] not in ("0", "1"):
        fail("--trace is 0 or 1", 2)
    return args


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not a result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has keys %s" % sorted(result))
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "or units differ" % (missing, extra))
    if result["attempted"] < 1:
        fail("nothing was attempted")


def run(argv):
    args = parse_run_args(argv)
    binary = build("e2ebench")
    records = os.path.join(build_dir(), "records")
    os.makedirs(records, exist_ok=True)
    record = os.path.join(records, "%s-seed%s-trace%s.json" % (
        args["workload"], args["seed"], args["trace"]))
    cmd = [binary, "--workload", args["workload"], "--seed", args["seed"],
           "--seconds", args["seconds"], "--trace", args["trace"],
           "--record", record]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("the benchmark ran past %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("the benchmark exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("the benchmark printed nothing")
    check_result(lines[-1], args["trace"])


def compare(paths):
    """Per-metric ratio of record B to record A, on the same host only."""
    if len(paths) != 2:
        fail("usage: run.py compare RECORD_A RECORD_B", 2)
    a, b = [json.load(open(p)) for p in paths]
    if a["host"] != b["host"]:
        print("refusing to compare: host fingerprints differ", file=sys.stderr)
        print("  A: " + json.dumps(a["host"], sort_keys=True), file=sys.stderr)
        print("  B: " + json.dumps(b["host"], sort_keys=True), file=sys.stderr)
        sys.exit(3)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("records are of different workloads or modes", 3)
    print("workload %s: seed %s vs seed %s" % (a["workload"], a["seed"],
                                              b["seed"]))
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print("  %-34s %14.6g %14.6g %s  B/A %.4f" % (
            name, ma["value"], mb["value"], ma["unit"], ratio))


def test():
    binary = build("e2ebench_test")
    sys.exit(subprocess.run([binary]).returncode)


def main(argv):
    if argv[:1] == ["compare"]:
        compare(argv[1:])
    elif argv[:1] == ["test"]:
        test()
    else:
        run(argv)


if __name__ == "__main__":
    main(sys.argv[1:])
