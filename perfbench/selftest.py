#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes.

Usage (from the repository root):  python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  - every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) is emitted, by name, with the declared unit, and nothing
    else is;
  - exact counts and simulated (*sim*) metrics repeat bit-for-bit across
    two processes, and so do the recorded determinism digests;
  - a corrupted recorded digest makes the points fail: `failed` rises,
    `valid_frac` drops below 1 and `correct` turns false.
Exits 0 when all checks pass, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402  (sibling module: build helpers)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Simulated metrics: deterministic functions of the inputs.
SIM_METRICS = {"aff_speedup", "aff_traffic_ratio", "mem.l3_miss_rate",
               "noc.utilization", "nsc.paper_speedup_err",
               "alloc.fallback_frac"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def drive(driver, workload, trace, *extra):
    cmd = [str(driver), "--workload", workload, "--seed", "1", "--seconds",
           "0.05", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"driver failed: {' '.join(cmd)}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def emitted(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def exact(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count" or k in SIM_METRICS}


def main():
    driver = run.build()
    scratch = run.build_dir()
    for w in (w["name"] for w in BENCH["workloads"]):
        digests = scratch / f"selftest-{w}.digests"
        first = drive(driver, w, 0, "--emit-digests", str(digests))
        check(emitted(first) == declared("end_to_end"),
              f"{w}: end-to-end metrics and units as declared")
        check(first["correct"] and first["failed"] == 0,
              f"{w}: every point valid and repeat-equal")

        again = drive(driver, w, 0, "--digests", str(digests))
        check(again["failed"] == 0,
              f"{w}: recorded digests reproduce in a second process")
        check(exact(again) == exact(first),
              f"{w}: simulated end-to-end metrics repeat bit-for-bit")

        t1 = drive(driver, w, 1)
        t2 = drive(driver, w, 1)
        check(emitted(t1) == declared("per_layer"),
              f"{w}: per-layer metrics and units as declared")
        check(exact(t1) == exact(t2) and len(exact(t1)) > 0,
              f"{w}: exact counts and simulated per-layer metrics repeat "
              "bit-for-bit")

        lines = digests.read_text().splitlines()
        name, label, hexval = lines[0].split()
        lines[0] = f"{name} {label} {int(hexval, 16) ^ 1:#018x}"
        corrupt = scratch / f"selftest-{w}.corrupt"
        corrupt.write_text("\n".join(lines) + "\n")
        bad = drive(driver, w, 0, "--digests", str(corrupt))
        check(bad["failed"] > 0 and not bad["correct"] and
              bad["metrics"]["valid_frac"]["value"] < 1.0,
              f"{w}: a corrupted recorded digest raises failures")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
