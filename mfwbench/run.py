#!/usr/bin/env python3
"""mfw's end-to-end benchmark (see README.md in this directory).

Run from the repository root:

  python3 mfwbench/run.py --workload campaign|materialized|serve \\
      --seed N --seconds S --trace 0|1
  python3 mfwbench/run.py --self-check
  python3 mfwbench/run.py --compare RESULTS_A RESULTS_B

The first form builds the benchmark binary (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload, checks its outputs, prints the full metric
document, and ends with one JSON line holding the metrics BENCHMARK.json
names: its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1. Every result is also saved, stamped with build type, compiler,
nproc, CPU model, seed and a hash of the sources, under <build>/results.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "materialized", "serve")

# Per-layer metric prefixes each workload exercises. A per_layer metric no
# prefix of a workload matches reads 0 there: the layer did no work.
LAYERS = {
    "campaign": ("modis.granule_stats.", "transfer.download.", "sim.",
                 "compute.", "flow.", "obs.", "pipeline."),
    "materialized": ("modis.", "storage.", "preprocess.", "ml.",
                     "flow.runner.", "transfer.ship.", "pipeline."),
    "serve": ("serve.",),
}

# Metrics the full document must carry, beyond BENCHMARK.json's, with units.
DOCUMENT = {
    "campaign": {"granules_per_s": "1/s"},
    "materialized": {"tiles_per_s": "1/s"},
    "serve": {"ingest_rows_per_s": "1/s", "query_p50_us.base": "us",
              "query_p99_us.base": "us", "query_p50_us.peak": "us",
              "query_p99_us.peak": "us", "sustained_qps": "1/s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MiB", "failed_frac": "frac"}
STAMP_KEYS = ("workload", "trace", "build_type", "compiler", "nproc",
              "cpu_model")


class BenchError(Exception):
    pass


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no mfw sources at %s/src" % ROOT)
    if not shutil.which("cmake"):
        raise BenchError("cmake not found")
    out = os.path.join(build_root(), "mfwbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_root(), "build.log")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (configure,
                    ["cmake", "--build", out, "--target", "mfwbench",
                     "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError("build failed; log at %s" % log_path)
    return os.path.join(out, "mfwbench")


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        raise BenchError("no BENCHMARK.json at %s" % ROOT)
    with open(path) as f:
        return json.load(f)


def source_hash():
    """Commit stand-in: the checkout need not be a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "mfwbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".pyc",)):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_binary(binary, workload, seed, seconds, trace, toy=False):
    traces = os.path.join(build_root(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if toy:
        cmd.append("--toy")
    if trace:
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def owned(workload, metric):
    return metric.startswith(LAYERS[workload])


def contract_result(bench, doc, workload, trace):
    """The JSON line the benchmark ends with, from the full document."""
    metrics = {}
    correct = bool(doc["correct"])
    for spec in bench["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        got = doc["metrics"].get(name)
        if got is None:
            if not trace or owned(workload, name):
                raise BenchError("%s: metric %s missing" % (workload, name))
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit or got["value"] is None:
            raise BenchError("%s: metric %s reads %r" % (workload, name, got))
        metrics[name] = {"value": got["value"], "unit": unit}
    return {"correct": correct, "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": metrics}


def print_document(doc):
    for check in doc["checks"]:
        print("check %-28s %s  %s" % (check["name"],
                                       "ok" if check["ok"] else "FAILED",
                                       check["detail"]))
    for name, m in doc["metrics"].items():
        samples = " (n=%d)" % m["samples"] if "samples" in m else ""
        print("%-36s %.6g %s%s" % (name, m["value"], m["unit"], samples))


def save(record):
    results = os.path.join(build_root(), "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d.json" % (
        record["workload"], record["seed"], record["trace"]))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)


def run(args):
    bench = load_benchmark()
    binary = build()
    doc = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    result = contract_result(bench, doc, args.workload, args.trace)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "build_type": doc["build_type"], "compiler": doc["compiler"],
              "nproc": os.cpu_count(), "cpu_model": cpu_model(),
              "source": source_hash(), "result": result, "document": doc}
    save(record)
    print_document(doc)
    print(json.dumps(result))
    return 0


def self_check():
    """Toy-size run of every workload, both modes; checks names and units."""
    bench = load_benchmark()
    binary = build()
    problems = []
    covered = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            doc = run_binary(binary, workload, 1, 1, trace, toy=True)
            try:
                contract_result(bench, doc, workload, trace)
            except BenchError as e:
                problems.append(str(e))
            if not doc["correct"] or doc["failed"]:
                problems.append("%s trace %d: output checks failed: %s" % (
                    workload, trace,
                    [c for c in doc["checks"] if not c["ok"]]))
            expected = dict(COMMON, **DOCUMENT[workload]) if not trace else {}
            for name, unit in expected.items():
                got = doc["metrics"].get(name)
                if not got or got["unit"] != unit:
                    problems.append("%s: %s should read in %s, got %r" % (
                        workload, name, unit, got))
            if trace:
                covered.update(doc["metrics"])
    for spec in bench["per_layer"]:
        if spec["name"] not in covered:
            problems.append("per_layer %s: no workload reports it"
                            % spec["name"])
    for p in problems:
        print("self-check: " + p, file=sys.stderr)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def load_results(path):
    paths = [path]
    if os.path.isdir(path):
        paths = [os.path.join(path, p) for p in sorted(os.listdir(path))
                 if p.endswith(".json")]
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    return records


def compare(path_a, path_b):
    """Medians of two result sets per workload; refuses mismatched stamps."""
    groups = {}
    for side, path in (("a", path_a), ("b", path_b)):
        for record in load_results(path):
            key = (record["workload"], record["trace"])
            groups.setdefault(key, {"a": [], "b": []})[side].append(record)
    status = 0
    for (workload, trace), sides in sorted(groups.items()):
        if not sides["a"] or not sides["b"]:
            continue
        stamps = {tuple(r[k] for k in STAMP_KEYS)
                  for r in sides["a"] + sides["b"]}
        if len(stamps) != 1:
            print("%s trace %d: refusing to compare, stamps differ: %s" % (
                workload, trace, sorted(stamps)), file=sys.stderr)
            status = 1
            continue
        print("%s (trace %d): %d vs %d runs" % (
            workload, trace, len(sides["a"]), len(sides["b"])))
        for name in sides["a"][0]["result"]["metrics"]:
            a = statistics.median(
                r["result"]["metrics"][name]["value"] for r in sides["a"])
            b = statistics.median(
                r["result"]["metrics"][name]["value"] for r in sides["b"])
            delta = (b - a) / a * 100 if a else float("nan")
            print("  %-34s %14.6g %14.6g %+8.2f%%" % (name, a, b, delta))
    return status


def main(argv):
    parser = argparse.ArgumentParser(
        description="mfw end-to-end benchmark",
        epilog="Run from the repository root.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true",
                        help="toy-size run of every workload")
    parser.add_argument("--compare", nargs=2, metavar="RESULTS",
                        help="compare two saved results (files or dirs)")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.compare:
            return compare(*args.compare)
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are "
                         "required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        return run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print("mfwbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
