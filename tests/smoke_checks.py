#!/usr/bin/env python3
"""Property checks on the JSON files the smoke checks write.

Usage: smoke_checks.py <check> <file>...

tests/CMakeLists.txt runs each check after the check that writes its files.
A failed property raises AssertionError, so the process exits non-zero with
the property in its message.
"""
import collections
import json
import os
import subprocess
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def report(report_json):
    """A trace report's critical path tiles the makespan, and its dominant
    stage is the longest stage span, as the rendered timeline shows."""
    doc = load(report_json)
    assert doc["schema"] == "mfw.trace_report/v1", doc.get("schema")
    assert doc["processes"], "no processes analyzed"
    for proc in doc["processes"]:
        name, makespan, path = proc["process"], proc["makespan"], proc["critical_path"]
        assert makespan > 0, f"{name}: empty makespan"
        assert path["length"] <= makespan * 1.001, (
            f"{name}: critical path {path['length']} exceeds makespan {makespan}")
        assert path["coverage"] >= 0.9, (
            f"{name}: critical path covers only {path['coverage']:.1%} of the makespan")
        stages = {s["stage"]: s for s in proc["stages"]}
        assert proc["dominant_stage"] in stages, proc["dominant_stage"]
        longest = max(stages.values(), key=lambda s: s["end"] - s["start"])
        assert proc["dominant_stage"] == longest["stage"], (
            f"{name}: dominant {proc['dominant_stage']} != longest stage span "
            f"{longest['stage']}")
        by_stage = {e["stage"]: e["seconds"] for e in path["by_stage"]}
        assert path["dominant_stage"] == max(by_stage, key=by_stage.get)
        print(f"{name}: dominant={proc['dominant_stage']} "
              f"coverage={path['coverage']:.1%} path_dominant={path['dominant_stage']}")


def telemetry(rollup_json, campaign_json):
    """The campaign's bounded recorder drops spans, keeps at most its exemplar
    cap, and its rollup sees every observed span."""
    rollup, campaign = load(rollup_json), load(campaign_json)
    rec = rollup["recorder"]
    assert rec["observed_spans"] > 1000, rec
    assert rec["dropped_spans"] > 0, "bounded mode dropped nothing"
    assert rec["retained_spans"] <= 4096, rec
    assert rec["retained_spans"] + rec["dropped_spans"] == rec["observed_spans"], rec
    assert rollup["rollup"]["spans_seen"] == rec["observed_spans"], "rollup sink missed spans"
    assert rollup["rollup"]["series"], "no rollup series"
    assert campaign["obs"]["observed_spans"] == rec["observed_spans"]
    print(f"{rec['observed_spans']} observed, {rec['retained_spans']} retained, "
          f"{rec['dropped_spans']} dropped, {len(rollup['rollup']['series'])} rollup series")


def campaign(campaign_json, baseline_json):
    """The quick campaign simulates exactly the committed baseline (wall time
    is not compared)."""
    got, want = load(campaign_json)["campaign"], load(baseline_json)["campaign"]
    for field in ("days", "granules", "tiles", "shipped_files",
                  "virtual_makespan_s", "events", "compactions"):
        assert got.get(field) == want[field], (
            f"quick campaign {field} is {got.get(field)}, baseline {want[field]}")


def churn(archive_campaign):
    """The substrates stay O(log n) per event: in a quick campaign run with
    --churn, churn at least 10x (resource) and 5x (link) faster than the
    O(n) oracles."""
    subprocess.run([archive_campaign, "--quick", "--churn", "--out", "campaign.json"],
                   check=True, stdout=subprocess.DEVNULL)
    rows = load("campaign.json")["churn_vs_naive"]
    resource, link = rows["resource"]["speedup"], rows["link"]["speedup"]
    print(f"resource churn speedup {resource}x (floor 10x), link {link}x (floor 5x)")
    assert resource >= 10.0 and link >= 5.0, "substrate churn speedup below floor"


def kernels(benchmark_json):
    """int8 GEMM and int8 encode are each at least 2x their fp32 path."""
    doc = load(benchmark_json)
    assert doc["context"].get("mfw_build_type") == "Release", "micro_kernels is not a Release build"
    rate = {b["name"]: b["items_per_second"] for b in doc["benchmarks"]}
    gemm = rate["BM_GemmS8/8/72/1024"] / rate["BM_Sgemm/8/72/1024"]
    encode = rate["BM_RiccEncodeInt8"] / rate["BM_RiccEncodeFp32"]
    print(f"int8 gemm over fp32 sgemm [8x72x1024]: {gemm:.2f}x (floor 2.0)")
    print(f"int8 encode over fp32 encode: {encode:.2f}x (floor 2.0)")
    assert gemm >= 2.0, "gemm_s8 speedup below the 2x floor"
    assert encode >= 2.0, "int8 encode speedup below the 2x floor"


def sweep(policies_json):
    """The quick policy sweep writes at least two fully populated points."""
    doc = load(policies_json)
    assert doc["schema"] == "mfw.policies/v1", doc.get("schema")
    points = doc["results"]
    assert len(points) >= 2, f"quick sweep produced {len(points)} points"
    for point in points:
        for field in ("makespan", "utilization", "p99_queue_wait", "deadline_misses"):
            assert field in point, f"{point['policy']}: no {field}"


def health(health_json, stdout_txt):
    """A healthy watched run writes the mfw.health/v1 sections and raises no
    alert."""
    doc = load(health_json)
    assert doc["schema"] == "mfw.health/v1", doc.get("schema")
    for section in ("rules", "alerts", "stages", "dropped_events"):
        assert section in doc, f"no {section} section"
    with open(stdout_txt) as f:
        alerts = [line for line in f if line.startswith("alert ")]
    assert not alerts, f"clean run raised {len(alerts)} alert(s): {alerts}"


def serve(serve_json):
    """Every sharded answer equals the archive-scan oracle, and the Zipf
    workload clears the 0.30 cache-hit floor."""
    doc = load(serve_json)
    assert doc.get("schema") == "mfw.serve/v1", doc.get("schema")
    assert doc.get("doc") == "serve_bench", doc.get("doc")
    check = doc["check"]
    assert check["queries"] >= 100, f"only {check['queries']} oracle queries ran"
    assert check["mismatches"] == 0, f"{check['mismatches']} oracle mismatches"
    hit_rate = doc["load"]["cache_hit_rate"]
    print(f"oracle: {check['queries']} queries; cache hit rate {hit_rate:.3f} (floor 0.30)")
    assert hit_rate >= 0.30, "cache hit rate below the 0.30 floor"
    resp = doc["example_response"]
    assert resp.get("schema") == "mfw.serve/v1" and "matched" in resp, resp


def diff(diff_json):
    """An injected 2x preprocess is the top finding, with at least 90% of the
    makespan delta."""
    doc = load(diff_json)
    assert doc["schema"] == "mfw.trace_diff/v1", doc.get("schema")
    proc = doc["processes"][0]
    assert proc["regression"], "regression flag not set"
    top = proc["findings"][0]
    assert top["kind"] == "stage", top
    assert top["stage"] == "preprocess", f"top finding is {top['stage']}"
    assert top["share"] >= 0.9, f"preprocess share {top['share']:.3f} < 0.9"


def flight(flight_json):
    """The flight dump is non-empty Chrome-trace JSON written at end of run."""
    doc = load(flight_json)
    events = doc["traceEvents"]
    assert events, "flight dump has no events"
    assert all(e["ph"] in ("X", "i", "M") for e in events), "bad phase"
    meta = doc["flight"]
    assert meta["reason"] == "end-of-run", meta
    assert meta["seen"] >= meta["retained"] > 0, meta


def stages(trace_json):
    """Both scheduling modes' processes carry the download, preprocess and
    inference stage spans."""
    events = load(trace_json)["traceEvents"]
    assert events, "trace has no events"
    names = {e["pid"]: e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    spans = collections.defaultdict(set)
    for e in events:
        if e["ph"] == "X" and e.get("cat") == "stage":
            assert e["dur"] >= 0, f"negative duration: {e}"
            spans[names.get(e["pid"], f"pid{e['pid']}")].add(e["name"])
    for name, seen in spans.items():
        missing = {"download", "preprocess", "inference"} - seen
        assert not missing, f"process {name} missing stage spans: {missing}"
    missing = {"eoml-barrier", "eoml-streaming"} - spans.keys()
    assert not missing, f"missing traced workflow runs: {missing}"


def bogus(*programs):
    """Each program, and each command that mfwctl's own usage listing names,
    exits 2 on --bogus before running anything: stdout stays empty and
    stderr names the flag, then gives that command line's usage, which for
    an mfwctl command is its line of the listing."""
    runs = []
    for program in programs:
        name = os.path.basename(program)
        if name != "mfwctl":
            runs.append(([program], name, None))
            continue
        listing = subprocess.run([program], capture_output=True, text=True)
        assert listing.returncode == 2, f"mfwctl alone exited {listing.returncode}"
        entries = []
        for line in listing.stderr.splitlines()[1:]:
            if line.startswith("  mfwctl "):
                entries.append(line)
            else:
                entries[-1] += line
        for entry in entries:
            command = entry.split()[1]
            runs.append(([program, command], f"mfwctl {command}", entry.split()))
    for argv, name, listed in runs:
        run = subprocess.run(argv + ["--bogus"], capture_output=True, text=True)
        assert run.returncode == 2, f"{name} --bogus exited {run.returncode}"
        assert run.stdout == "", f"{name} --bogus wrote to stdout: {run.stdout!r}"
        head, _, usage = run.stderr.partition("\nusage: ")
        assert head == "error: unknown flag '--bogus'", f"{name}: {run.stderr!r}"
        assert usage.split()[:len(name.split())] == name.split(), f"{name}: {usage!r}"
        assert listed is None or usage.split() == listed, (
            f"{name}: usage {usage!r} is not its listing {' '.join(listed)!r}")
    print(f"{len(runs)} command lines reject --bogus with their usage line")


CHECKS = {f.__name__: f for f in (report, telemetry, campaign, churn, kernels,
                                  sweep, health, serve, diff, flight, stages,
                                  bogus)}

if __name__ == "__main__":
    CHECKS[sys.argv[1]](*sys.argv[2:])
