#!/usr/bin/env python3
"""Build the deployed server and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `amoe-serve` (root workspace) and
the `perfbench` package (its own workspace) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark
binary, whose last stdout line is the result JSON. Scratch files and
traced-run Chrome traces go to `.bench_run/`.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# What the digest covers: every source and manifest the two builds read.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".bench_run", "__pycache__"}

# The child being waited for. It runs in a session of its own, so a
# signal to this script takes down its whole process group (the
# benchmark and the server it started) before this script exits.
CHILD = None


def stop_child(signum, _frame):
    if CHILD is not None and CHILD.poll() is None:
        try:
            os.killpg(CHILD.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        CHILD.wait()
    sys.exit(128 + signum)


def run(cmd, **kwargs):
    global CHILD
    CHILD = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        return CHILD.wait()
    finally:
        CHILD = None


def source_digest():
    """SHA-256 over the build inputs, standing in for the commit when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cargo(args, env):
    # Build output goes to stderr: stdout's last line is the result.
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return run(cmd, env=env, stdout=sys.stderr) == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, stop_child)

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no workspace Cargo.toml here; nothing to build", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target

    if not cargo(["-p", "amoe-serve", "--bin", "amoe-serve"], env):
        print("perfbench: building amoe-serve failed", file=sys.stderr)
        return 2
    if not cargo(["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")], env):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 2

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server-bin", os.path.join(target, "release", "amoe-serve"),
        "--run-dir", os.path.join(ROOT, ".bench_run"),
        "--commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    return run(cmd, env=env)


if __name__ == "__main__":
    sys.exit(main())
