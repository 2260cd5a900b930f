#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources and run one workload.

    python3 bench_e2e/run.py --workload stream_tcp --seed 1 --seconds 20 --trace 0

Run from anywhere; the build goes to $CARGO_TARGET_DIR/bench_e2e when that
is set, else to .bench_build/bench_e2e at the checkout root. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. Exits non-zero when the build fails, an output
check fails, or the benchmark overruns its time limit (it is then killed).
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("local_pipeline", "stream_tcp", "stream_shm", "reconfig_live")
# The first run of a checkout builds (about a minute on 4 CPUs) and must
# end within 900 s; every run must end within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 160


def build():
    """Configures and builds the benchmark; returns its path or None."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "bench_e2e"
    # The compiler's temporary files stay inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"run.py: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            return None
    return build_dir / "bench_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64 or not 1 <= args.seconds <= 120:
        parser.error("--seed must fit 64 bits unsigned, --seconds 1..120")

    exe = build()
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("run.py: benchmark overran its time limit", file=sys.stderr)
        return 1
    finally:
        # A killed stream_shm run cannot unlink its rings itself; they are
        # named after its pid.
        for ring in Path("/dev/shm").glob(f"rtcf-e2e-{child.pid}-*"):
            ring.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
