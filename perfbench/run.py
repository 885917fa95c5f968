#!/usr/bin/env python3
"""Build and run the simulator's host-cost benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the simulator library from src/) into
$CARGO_TARGET_DIR or .bench_build/, prints a provenance line, then runs
the driver. The driver's last stdout line is the JSON result. Workloads:
affine_stencil, graph_powerlaw, pointer_churn (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.txt"
BUILD_TYPE = "Release"


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then build incrementally; returns the driver path."""
    out = build_dir()
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out / "perfbench_driver"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_hash():
    """Hash of the simulator and benchmark sources: a revision stand-in
    that also works in checkouts without git metadata."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".hh", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    provenance = {
        "git_revision": git_revision(),
        "source_sha256": source_hash(),
        "build_type": BUILD_TYPE,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "threads": {"driver": 1, "jobs": 1, "sim_threads": 1},
        "workload": args.workload,
        "trace": int(args.trace),
    }
    print("provenance " + json.dumps(provenance), flush=True)

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--digests", str(DIGESTS)]
    if args.trace == "1":
        spans = build_dir() / f"spans-{args.workload}-{args.seed}.json"
        cmd += ["--spans-out", str(spans)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
