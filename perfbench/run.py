#!/usr/bin/env python3
"""Build ftdiag from source and run one benchmark workload.

    python3 perfbench/run.py --workload {serve,testgen,build_sparse} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The first run configures and builds the
library, `ftdiag_cli` and the benchmark program into `.bench_build/`
(Release); later runs rebuild incrementally.  The benchmark's self-tests
run before every measurement.  The last line of stdout is the JSON
summary, with exactly the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1).  Per-run details
and the traced run's spans land in `.bench_build/out/`.  The exit code
is non-zero when the build fails, a self-test fails, or any output check
of the run fails.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            sys.exit(1)


def revision():
    """The commit when this is a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "testgen", "build_sparse"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    if subprocess.run([str(BUILD / "perfbench_selftest")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("self-tests failed")
        sys.exit(1)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    command = [str(BUILD / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--cli", str(BUILD / "ftdiag" / "ftdiag_cli"),
               "--work-dir", str(BUILD / "run"),
               "--out-dir", str(BUILD / "out"),
               "--revision", revision()]
    # Own process group, so a run that hangs or dies takes the servers it
    # started down with it.
    done = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = done.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(done.pid, signal.SIGKILL)
        done.communicate()
        log(f"the run did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    if done.returncode < 0:
        try:
            os.killpg(done.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(stdout)
        log(f"no result line (exit code {done.returncode})")
        sys.exit(1)
    print("\n".join(lines[:-1]), flush=True)

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            log(f"metric {metric['name']} missing or not in {metric['unit']}")
            sys.exit(1)
        metrics[metric["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
