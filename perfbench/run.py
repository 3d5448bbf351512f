#!/usr/bin/env python3
"""Builds the serving benchmark from the repository's sources and runs it.

    python3 perfbench/run.py --workload <many-tenants|crowded-domains|restart> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build tree is $CARGO_TARGET_DIR (or
.bench_build) under the current directory; the last line of standard
output is the JSON result.
"""
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "net", "server.cc")):
        log("the repository's sources (src/) are missing; nothing to build")
        return False
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    compile_ = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def stop_group(pgid):
    """Kills whatever is left of the benchmark's process group and waits
    until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        log("build failed")
        return 2
    binary = os.path.join(build_dir, "perfbench")
    command = [binary] + sys.argv[1:] + ["--out-dir",
                                         os.path.join(build_dir, "out")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               start_new_session=True, text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(process.pid)
        process.communicate()
        log(f"the run exceeded {RUN_TIMEOUT_S} s")
        return 3
    stop_group(process.pid)
    if process.returncode != 0:
        log(f"the run failed with exit code {process.returncode}")
        return process.returncode if process.returncode > 0 else 4
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
