#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload drive_hd|night_hd|serve_640 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
avd libraries and the workload runner from source into .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs reuse that build. Build output goes
to stderr, so the last line of stdout is the JSON result of the run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(root: Path, build_dir: Path) -> Path:
    binary = build_dir / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the build tree, not in /tmp.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no avd sources next to perfbench/ (expected src/CMakeLists.txt)")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(root, build_dir)

    try:
        done = subprocess.run([str(binary), *sys.argv[1:]], cwd=root,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"perfbench exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("perfbench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("perfbench result has unexpected keys")


if __name__ == "__main__":
    main()
