#!/usr/bin/env python3
"""Smoke tests of the benchmark itself: a one-second run of every workload.

    python3 perfbench/test_bench.py

Run from the root of a checkout.  For every workload it checks that

  * every metric BENCHMARK.json names is printed, with its unit, in both
    the end-to-end run (--trace 0) and the traced run (--trace 1), and
    that both runs report success;
  * the traced run's digests equal the untraced run's (the wrappers are
    passive);
  * a deliberately wrong reference digest is reported as a failure, not
    passed.

It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = "42"
SCRATCH = os.path.join(".bench_tmp", "smoke")


def run(workload, trace, *extra, cwd="."):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc, what):
    if proc.returncode != 0:
        fail(f"{what}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{what}: no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{what}: unexpected keys {sorted(result)}")
    return result


def digests(proc):
    return {line for line in proc.stderr.splitlines() if line.startswith("digest ")}


def fail(msg):
    print("FAIL", msg)
    sys.exit(1)


def check_metrics(result, specs, what):
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail(f"{what}: metric {spec['name']} missing")
        if got.get("unit") != spec["unit"]:
            fail(f"{what}: metric {spec['name']} has unit {got.get('unit')}, want {spec['unit']}")
        if not isinstance(got.get("value"), (int, float)):
            fail(f"{what}: metric {spec['name']} has no numeric value")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    with open(os.path.join("perfbench", "reference.json")) as f:
        reference = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        plain = run(w, 0)
        r = result_of(plain, f"{w} --trace 0")
        check_metrics(r, bench["end_to_end"], f"{w} --trace 0")
        if not r["correct"] or r["failed"]:
            fail(f"{w} --trace 0 reported failures\n{plain.stderr[-2000:]}")
        traced = run(w, 1)
        r = result_of(traced, f"{w} --trace 1")
        check_metrics(r, bench["per_layer"], f"{w} --trace 1")
        if not r["correct"] or r["failed"]:
            fail(f"{w} --trace 1 reported failures\n{traced.stderr[-2000:]}")
        if not digests(plain) or digests(plain) != digests(traced):
            fail(f"{w}: traced digests {digests(traced)} differ from untraced {digests(plain)}")
        wrong = json.loads(json.dumps(reference))
        good = wrong[w][SEED]
        wrong[w][SEED] = ("0" if good[0] != "0" else "1") + good[1:]
        path = os.path.join(SCRATCH, f"wrong-{w}.json")
        with open(path, "w") as f:
            json.dump(wrong, f)
        r = result_of(run(w, 0, "--reference", path), f"{w} with a wrong reference")
        if r["correct"] or r["failed"] < 1:
            fail(f"{w}: a wrong reference digest was not reported as a failure")
        print(f"ok {w}")
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the library sources")
    print("ok refuses to run without the library sources")
    shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    main()
