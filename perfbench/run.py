#!/usr/bin/env python3
"""CQAds serving benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload survey_wire --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the cqads library and the benchmark
driver from source into $CARGO_TARGET_DIR (default .bench_build), generates
the workload's inputs from --seed in a separate process, runs the served
configuration on them, checks every answer, and prints one JSON object as
the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {value, unit}}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (span self times are derived here, see spans.py). Exits
non-zero without a result when the build, the inputs or the run fail.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spans  # noqa: E402

WORKLOADS = ("survey_wire", "fresh_ingest", "rank_sweep")
DEADLINE_S = 170.0  # a run must end within 180 s once built


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} is missing")
    with open(path) as f:
        return json.load(f)


def build(root, build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        fail("no cqads sources next to perfbench/ (expected CMakeLists.txt and src/)")
    bdir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "cqads_serverd", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench"), os.path.join(bdir, "cqads_serverd")


def run_step(cmd, timeout):
    """Runs one driver process; returns its stdout. Never leaves it behind."""
    if timeout <= 0:
        fail("out of time")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs (the benchmark's own tests)")
    args = p.parse_args()

    root = os.getcwd()
    spec = load_spec(root)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary, daemon = build(root, build_dir)

    started = time.monotonic()
    # Relative paths keep the Unix socket path short wherever the checkout is.
    work = os.path.relpath(os.path.join(
        build_dir, "work",
        f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}"), root)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--dir", work]
    if args.smoke:
        common.append("--smoke")
    try:
        run_step([binary, "gen"] + common, DEADLINE_S - (time.monotonic() - started))
        out = run_step([binary, "run", "--trace", str(args.trace), "--daemon", daemon] + common,
                       DEADLINE_S - (time.monotonic() - started))
        lines = out.strip().splitlines()
        if not lines:
            fail("driver printed no result")
        raw = json.loads(lines[-1])
        values = raw["metrics"]
        if args.trace:
            values.update(spans.layer_metrics(
                spans.read_spans(os.path.join(work, "spans.tsv"))))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
