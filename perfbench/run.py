#!/usr/bin/env python3
"""Build the Nebby sources in this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload census-tcp --seed 1 --seconds 12 --trace 0

Run it from the root of the repository. It builds perfbench/bench.exe and
the nebby CLI with dune into .bench_build/, runs the workload, and relays
the workload's output: the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. Exits non-zero, without
a result line, when the sources are missing, the build fails or the run
fails. With --workload all it runs every workload in turn and prints one
table of their metrics and a PASS/FAIL verdict per workload instead.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("census-tcp", "census-quic", "serve-delta")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
SOURCES = ("dune-project", "lib", "bin", os.path.join("perfbench", "dune"))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top) if os.path.isdir(top) else [("", [], [top])]:
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")

    # The release profile keeps a new compiler warning from failing the
    # benchmark build; the code generated is the same as the dev build's.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "perfbench/bench.exe", "bin/nebby_cli.exe"],
        capture_output=True, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    cli = os.path.join(BUILD_DIR, "default", "bin", "nebby_cli.exe")
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [exe, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--cli", cli, "--work", WORK_DIR,
               "--commit", revision()]
    if args.workload != "all":
        sys.exit(subprocess.run(command + ["--workload", args.workload]).returncode)

    passed = True
    for workload in WORKLOADS:
        run = subprocess.run(command + ["--workload", workload], capture_output=True, text=True)
        sys.stderr.write(run.stderr)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
        ok = result is not None and result["correct"]
        passed = passed and ok
        print("%-12s %s" % (workload, "PASS" if ok else "FAIL"))
        for name, metric in (result or {}).get("metrics", {}).items():
            print("  %-34s %14.6g %s" % (name, metric["value"], metric["unit"]))
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
