#!/usr/bin/env python3
"""Builds and runs the wall-clock service benchmark (see README.md).

    python3 perfbench/run.py --workload svc_zipf --seed 1 --seconds 10 --trace 0

Builds perfbench/ and the library sources it needs into
.bench_build/perfbench (Release) under the repository root, then runs the
benchmark binary with the same arguments. Build output goes to stderr; the
binary's last stdout line is the JSON result. Exits nonzero, without a
result, when the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("svc_zipf", "vec_ingest", "scan_qsbr")
# Per-thread trace ring, in events: holds the ladder's spans and the
# structural spans of the traced rounds; per-op read-section events
# beyond it wrap (the newest are kept).
TRACE_RING_EVENTS = 32768


def run(cmd, timeout, env=None, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build():
    rc = run(["cmake", "-S", "perfbench", "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], 300, stdout=sys.stderr)
    if rc != 0:
        return rc
    return run(["cmake", "--build", BUILD, "-j2", "--target", "perfbench"],
               840, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # The library reads RCUA_* knobs from the environment; run with none
    # set except the trace ring size, so every run measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RCUA_")}
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        env["RCUA_TRACE_CAP"] = str(TRACE_RING_EVENTS)
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{a.workload}.json")]
    sys.stdout.flush()
    return run(cmd, 175, env=env)


if __name__ == "__main__":
    sys.exit(main())
