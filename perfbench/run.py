#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--ledger <file.jsonl>]

Run from the root of the repository. The first run configures and builds
perfbench/ (which compiles the library from src/) into the directory named by
CARGO_TARGET_DIR, or .bench_build, under the repository root; later runs only
check that the build is current.

Standard output ends with two lines: the full record of the run (workload,
seed, host fingerprint, source revision, metrics, notes) and then the result
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics, and the spans of the traced run are written to
traces/<workload>-seed<seed>.jsonl in the build directory. --ledger appends
the full record to a JSON-lines file for perfbench/compare.py.

Exit status: 0 on success; 1 if an operation failed or an output did not
match its input; 2 if the build or the arguments are bad; 3 if the load
generator fell behind its schedule (no result is printed then).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; nothing to build")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr so stdout carries only results.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return None
    binary = out / "perfbench"
    return binary if binary.is_file() else None


def source_revision():
    """The git commit when there is one, else a digest of the source tree."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--ledger", help="append the full record to this file")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode == 2 or not lines:
        log(f"perfbench exited {done.returncode} without a record")
        return done.returncode or 1
    record = json.loads(lines[-1])
    if done.returncode == 3 or not record["valid"]:
        log(f"invalid run, not reported: {record['invalid_reason']}")
        return 3

    names = expected_metrics(args.trace == "1")
    if sorted(names) != sorted(record["metrics"]):
        log("metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(record['metrics']))}, "
            f"extra {sorted(set(record['metrics']) - set(names))}")
        return 1

    record["provenance"]["source"] = source_revision()
    record["failed_share"] = record["failed"] / max(1, record["attempted"])
    if args.ledger:
        with open(args.ledger, "a") as f:
            f.write(json.dumps(record) + "\n")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in names},
    }
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
