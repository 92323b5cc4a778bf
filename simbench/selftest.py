#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 simbench/selftest.py

Runs every workload at a tiny scale in both modes through run.py and
checks that:
  * each run is correct and reports exactly the metrics BENCHMARK.json
    names for its mode, each with its unit;
  * a forced maxTicks timeout is counted as a failed cell instead of
    crashing the run;
  * a digest that does not match the cell's statistics is reported.
Exits 0 when every check passes. Takes about a minute on 4 cores.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "simbench", "selftest")
TINY = {"paper16": "0.02", "snoop16": "0.01", "wide256": "0.005",
        "figures": "0.01"}


def run(*args):
    """Run the benchmark; return (exit code, stdout, last-line JSON)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    return proc.returncode, proc.stdout, summary


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    want = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            what = f"{workload} --trace {trace}"
            code, _, summary = run(
                "--workload", workload, "--seed", "1", "--seconds",
                "0.01", "--trace", trace, "--scale", TINY[workload])
            expect(code == 0 and summary is not None,
                   f"{what}: exits 0 with a JSON summary")
            if summary is None:
                continue
            expect(summary["correct"] and summary["failed"] == 0 and
                   summary["attempted"] > 0,
                   f"{what}: correct, no failed cells")
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            expect(got == want[trace],
                   f"{what}: every metric named with its unit")

    code, _, summary = run(
        "--workload", "paper16", "--seed", "1", "--seconds", "0.01",
        "--trace", "0", "--scale", TINY["paper16"], "--max-ticks", "2000")
    expect(code == 0 and summary is not None and
           not summary["correct"] and summary["failed"] > 0 and
           set(summary["metrics"]) == set(want["0"]),
           "a forced maxTicks timeout is a counted failure")

    os.makedirs(SCRATCH, exist_ok=True)
    bad = os.path.join(SCRATCH, "wrong_digests.txt")
    with open(bad, "w", encoding="utf-8") as f:
        f.write(f"paper16 {TINY['paper16']} fmm/predicted-sp "
                "0123456789abcdef\n")
    code, out, summary = run(
        "--workload", "paper16", "--seed", "1", "--seconds", "0.01",
        "--trace", "0", "--scale", TINY["paper16"], "--digest-file", bad)
    expect(code == 0 and summary is not None and
           not summary["correct"] and "digest mismatch" in out,
           "a digest mismatch is reported")

    print("selftest:", "PASS" if not problems else
          f"{len(problems)} check(s) failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
