#!/usr/bin/env python3
"""Tiny-size self-test of the end-to-end benchmark.

Usage (from the repository root):  python3 perfbench/selftest.py

Runs every workload (those of BENCHMARK.json and paper_flow, which is run
by hand) once untraced and once traced at the --tiny size through
perfbench/run.py, and checks that:

  * each run exits 0 and ends with the JSON result line;
  * the untraced result carries every end_to_end metric with its unit, and
    a "metric" line prints each one (plus failed_share) with its unit and,
    for distributions and shares, its sample count;
  * the traced result carries every per_layer metric with its unit;
  * on fast_compile, the fixture kernel (build_random_kernel seed 43,
    47 ops), whose schedule passes check_schedule but makes the simulator
    throw "premature reuse", is counted as a failure and in sim.faults
    without aborting the run, and the result stays correct.

Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WITHOUT_COUNT = {"gen_cycles", "loop_ii_cc", "peak_rss_mb"}
WORKLOADS = ["paper_flow", "fast_compile", "svc_stream"]


def fail(msg):
    sys.exit("selftest FAILED: " + msg)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} trace={trace}: last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    return lines[:-1], result


def check_metrics(where, result, specs):
    got = result["metrics"]
    for spec in specs:
        m = got.get(spec["name"])
        if m is None or m.get("unit") != spec["unit"] or not isinstance(m.get("value"), (int, float)):
            fail(f"{where}: metric {spec['name']} missing or without unit {spec['unit']}")
    extra = set(got) - {s["name"] for s in specs}
    if extra:
        fail(f"{where}: unexpected metrics {sorted(extra)}")


def check_lines(where, lines, specs):
    printed = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric":
            printed[parts[1]] = parts[2:]
    for spec in specs + [{"name": "failed_share", "unit": "share"}]:
        fields = printed.get(spec["name"])
        if fields is None or len(fields) < 2 or fields[1] != spec["unit"]:
            fail(f"{where}: no 'metric {spec['name']} <value> {spec['unit']}' line")
        if spec["name"] not in WITHOUT_COUNT and not any(f.startswith("n=") for f in fields[2:]):
            fail(f"{where}: metric {spec['name']} prints no sample count")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    unknown = {w["name"] for w in bench["workloads"]} - set(WORKLOADS)
    if unknown:
        fail(f"BENCHMARK.json names workloads the self-test does not know: {sorted(unknown)}")
    for name in WORKLOADS:
        lines, result = run(name, 0)
        check_metrics(f"{name} trace=0", result, bench["end_to_end"])
        check_lines(f"{name} trace=0", lines, bench["end_to_end"])
        if not result["correct"]:
            fail(f"{name}: result not correct")
        _, traced = run(name, 1)
        check_metrics(f"{name} trace=1", traced, bench["per_layer"])
        if name == "fast_compile":
            fixture = [l for l in lines if l.startswith("failed: rand-43-47: simulator exception")]
            if not fixture or "premature reuse" not in fixture[0]:
                fail("fast_compile: the seed-43/47 fixture was not counted as a simulator fault")
            if result["failed"] < 1 or traced["metrics"]["sim.faults"]["value"] < 1:
                fail("fast_compile: fixture failure missing from failed / sim.faults")
        print(f"ok {name}: {len(result['metrics'])} end-to-end and "
              f"{len(traced['metrics'])} per-layer metrics")
    print("selftest passed")


if __name__ == "__main__":
    main()
