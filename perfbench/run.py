#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload day-paper|fleet-country|live \
      [--seed N] [--seconds S] [--trace 0|1] [--out results.jsonl]
  python3 perfbench/run.py --smoke
  python3 perfbench/run.py --compare before.jsonl after.jsonl

A measuring run prints a line with the full record (host and build block,
workload-specific numbers) and, last, one JSON object with exactly the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json when untraced, its per-layer metrics when traced. --out
appends the full record to a JSON-lines file; --compare prints the medians
of two such files and refuses to compare results whose host or build differ.
--smoke runs the self-tests and a short run of every workload.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("day-paper", "fleet-country", "live")
DEFAULT_SEED = 1
SETUP_SPAWNS = 21  # set-up is timed this many times per run; the median is reported
BUILD_JOBS = 4
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170.0  # a run must end within 180 s
BUILD_DEADLINE_S = 880.0  # the first run in a checkout may take 900 s


class BenchError(Exception):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures and builds perfbench; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources next to {HERE.name}/ (need CMakeLists.txt and src/)")
    out = BUILD_DIR
    started = time.monotonic()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = max(1, min(BUILD_JOBS, nproc()))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", str(jobs)])
    for step in steps:
        left = BUILD_DEADLINE_S - (time.monotonic() - started)
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=max(1.0, left))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(step)}")
    return out / "perfbench"


def time_setup(binary, workload, seed, work_dir):
    """Median seconds from spawn to the child's 'ready' line."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        started = time.perf_counter()
        child = subprocess.Popen(
            [str(binary), "--workload", workload, "--seed", str(seed), "--setup-only",
             "--work-dir", str(work_dir)],
            stdout=subprocess.PIPE, text=True)
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise BenchError(f"set-up of {workload} failed")
        samples.append(elapsed)
    return statistics.median(samples)


def source_identity():
    """git commit + dirty flag where there is a git checkout, and a digest of
    the sources the benchmark builds (present in any checkout)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*"))
    for path in files:
        if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    identity = {"git_commit": None, "git_dirty": None, "source_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                identity["git_commit"] = head.stdout.strip()
                identity["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return identity


def host_block():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": model, "machine": platform.machine(),
            "kernel": platform.release()}


def comparable_key(record):
    """What must match before two results may be compared."""
    build = record["build"]
    host = record["host"]
    return {"nproc": host["nproc"], "cpu_model": host["cpu_model"],
            "machine": host["machine"], "compiler": build["compiler"],
            "build_type": build["build_type"], "obs_compiled": build["obs_compiled"],
            "obs_runtime": build["obs_runtime"]}


def check_comparable(records):
    """Raises BenchError naming the first host/build field that differs."""
    if not records:
        raise BenchError("no results to compare")
    first = comparable_key(records[0])
    for record in records[1:]:
        key = comparable_key(record)
        for field, value in first.items():
            if key[field] != value:
                raise BenchError(f"refusing to compare: {field} differs "
                                 f"({value!r} vs {key[field]!r})")


def measure(args, benchmark):
    binary = build()
    work_dir = BUILD_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    setup_s = time_setup(binary, args.workload, args.seed, work_dir)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    if args.smoke:
        command.append("--smoke")
    left = DEADLINE_S - (time.monotonic() - started)
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, left))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"perfbench exited with {done.returncode}")
    result = json.loads(lines[-1])

    metrics = dict(result["metrics"])
    wanted = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    if not args.trace:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    else:
        result["extra"]["setup_s"] = {"value": setup_s, "unit": "s"}
    names = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != names:
        raise BenchError(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
                         f"{sorted(names.items())}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "host": host_block(), "build": result["build"], "source": source_identity(),
              "correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics, "extra": result["extra"]}
    return record


def compare(paths):
    sides = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sides.append([json.loads(line) for line in handle if line.strip()])
    check_comparable(sides[0] + sides[1])
    rows = {}
    for side, records in enumerate(sides):
        for record in records:
            for name, metric in record["metrics"].items():
                key = (record["workload"], record["trace"], name, metric["unit"])
                rows.setdefault(key, ([], []))[side].append(metric["value"])
    print(f"{'workload':14} {'metric':26} {'unit':6} {'n':>5} {'median A':>14} {'median B':>14} {'B/A':>7}")
    for (workload, trace, name, unit), (a, b) in sorted(rows.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = f"{mb / ma:7.3f}" if ma else "      -"
        print(f"{workload:14} {name:26} {unit:6} {len(a):>2}/{len(b):<2} {ma:14.6g} {mb:14.6g} {ratio}")


def self_test():
    """Checks the host/build refusal; the C++ side checks the statistics."""
    base = {"host": {"nproc": 4, "cpu_model": "X", "machine": "x86_64", "kernel": "k"},
            "build": {"compiler": "g++ 12", "build_type": "Release", "obs_compiled": True,
                      "obs_runtime": True}}
    same = json.loads(json.dumps(base))
    same["host"]["kernel"] = "other"  # the kernel is recorded, not compared
    check_comparable([base, same])
    for section, field, value in (("host", "nproc", 1), ("host", "cpu_model", "Y"),
                                  ("build", "build_type", "Debug"),
                                  ("build", "obs_runtime", False)):
        other = json.loads(json.dumps(base))
        other[section][field] = value
        try:
            check_comparable([base, other])
        except BenchError:
            continue
        raise BenchError(f"self-test: a {field} mismatch was not refused")
    print("run.py self-test ok")


def smoke(benchmark):
    self_test()
    binary = build()
    if subprocess.run([str(binary), "--self-test"]).returncode != 0:
        raise BenchError("perfbench --self-test failed")
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED, seconds=1,
                                      trace=trace, smoke=True)
            record = measure(args, benchmark)
            good = record["correct"] and record["failed"] == 0
            ok = ok and good
            print(f"== {workload} trace={trace} correct={record['correct']} "
                  f"attempted={record['attempted']} failed={record['failed']}")
            for name, metric in list(record["metrics"].items()) + list(record["extra"].items()):
                print(f"   {name:28} {metric['value']:16.6g} {metric['unit']}")
    if not ok:
        raise BenchError("smoke run found failures")
    print("smoke ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    try:
        if args.self_test:
            self_test()
            return 0
        if args.compare:
            compare(args.compare)
            return 0
        benchmark = load_json(ROOT / "BENCHMARK.json")
        if args.smoke:
            smoke(benchmark)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed is None:
            args.seed = DEFAULT_SEED
        if args.seconds is None:
            args.seconds = benchmark["run_seconds"]
        record = measure(args, benchmark)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(json.dumps({"perfbench": record}, sort_keys=True))
        print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": record["metrics"]}))
        return 0
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
