#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload kernels|comm|playground \
        --seed N --seconds S --trace 0|1

Builds the benchmark's binaries (perfbench/Cargo.toml: `perfbench` and
the reference loop `perfbench-ref`) and the `lold` daemon from source
with cargo, then runs one measurement. The binary's
standard output is passed through; its last line is the JSON result.
Cargo builds into $CARGO_TARGET_DIR (default .bench_build at the repo
root); C builds, spans and other run files go to .perfbench at the root.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A run measures for --seconds, plus set-up, warm-up and checks, which
# grow with it (the traced run measures most layers for a share of it).
# It is stopped, without a result, after RUN_MARGIN_S + RUN_FACTOR x that.
RUN_MARGIN_S = 80
RUN_FACTOR = 3


def build(target_dir):
    """Build the benchmark and lold; exit non-zero if either fails."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "lol-cli", "--bin", "lold"],
    ):
        env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: {' '.join(cmd)} failed ({done.returncode})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target_dir.is_absolute():
        target_dir = Path.cwd() / target_dir
    build(target_dir)

    out_dir = ROOT / ".perfbench"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(target_dir / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--lold", str(target_dir / "release" / "lold"),
        "--out", str(out_dir),
    ]
    # The C backend builds its binaries under TMPDIR: keep them inside
    # the checkout. A session of its own lets us stop anything left.
    #
    # glibc's malloc moves its mmap and trim thresholds up to the size
    # of the largest block freed so far. In-process engine runs then
    # cost 4x more or less (a 2-PE run maps, faults in and trims its two
    # 512 KiB symmetric heaps, or reuses them) depending on how large
    # the load generator's last response buffers happened to be, and
    # lold's throughput moves by about 30 % with its own history. Fixing
    # the threshold at glibc's starting value makes every run, in the
    # benchmark and in the lold and C processes it starts, allocate as
    # a fresh `lolrun` process does.
    env = dict(os.environ, TMPDIR=str(tmp), MALLOC_MMAP_THRESHOLD_="131072")
    timeout = RUN_MARGIN_S + RUN_FACTOR * args.seconds
    # Stopped from outside, still stop what we started (below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {timeout} s", file=sys.stderr)
        code = 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
