#!/usr/bin/env python3
"""Build and run the DeFT simulator benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper_figs --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a CMake package that compiles the checkout's src/) in
Release mode under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs the benchmark binary, whose last line of standard output is the
JSON result. The exit code is the binary's: 0 only when every output matched
the oracle. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_figs", "campaign", "grid_sharded")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(roots):
    """sha256 over every source file under `roots` (path and content)."""
    h = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(".git"):
        return "none-not-a-git-checkout"
    try:
        out = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    step = ["cmake", "--build", build_dir, "--target", "perfbench",
            "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not os.path.isfile(os.path.join("src", "core", "runner.hpp")):
        fail("run from the root of a checkout: src/ (the simulator "
             "sources) is missing")
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        fail("perfbench/CMakeLists.txt is missing")

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target_root, "perfbench")
    build(build_dir)

    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--workdir", workdir,
               "--commit", git_commit(),
               "--source-digest", source_digest(["src", "perfbench"])]
    sys.stdout.flush()
    proc = subprocess.Popen(command)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # Keep the traced run's span file; drop the spool and checkpoints.
        for name in os.listdir(workdir) if os.path.isdir(workdir) else []:
            if name.startswith("trace_") and name.endswith(".json"):
                os.replace(os.path.join(workdir, name),
                           os.path.join(build_dir, name))
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
