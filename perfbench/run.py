#!/usr/bin/env python3
"""The repository benchmark: builds amcast_noded and mrpbench from
the checked-out sources, then runs one workload.

    python3 perfbench/run.py --workload ring3_read --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and each run's cluster data to a fresh directory under
.bench_runs that is removed afterwards. The last line of standard output is
the JSON result; build output and the run summary go to standard error.
See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> None:
    """Configures once, then builds incrementally (a no-op when current)."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "mrpbench", "amcast_noded"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "runtime" / "amcast_noded.cpp").is_file():
        print(f"run.py: no amcast sources under {ROOT}/src", file=sys.stderr)
        return 2
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_runs" / f"run-{os.getpid()}"
    cmd = [str(build_dir / "mrpbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--noded", str(build_dir / "amcast" / "runtime" / "amcast_noded"),
           "--work-dir", str(work)]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run timed out", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
