#!/usr/bin/env python3
"""Build the benchmark and `sweepd` from source, then run one workload.

Usage (from anywhere; paths resolve against the repository root):

    python3 tsebench/run.py --workload <name> [--seed 42] [--seconds 10] [--trace 0|1]

Any further flags are passed to the `tsebench` binary (see
`tsebench/src/main.rs`). Builds go to `$CARGO_TARGET_DIR`, default
`.bench_build`; scratch files go to `.bench_work` and are removed when
the run ends, except the traced run's spans under `.bench_work/traces`.
The last stdout line is the result JSON; build output goes to stderr.
Exits non-zero, printing no result, when the build or the run fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Whole-run limit; the benchmark itself keeps well inside it.
RUN_TIMEOUT_S = 175


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "tse-sweepd", "--bin", "sweepd"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def commit():
    """The git commit when the tree is a checkout, else a digest of the
    sources the benchmark builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "crates", "vendor", "tsebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "source-sha256:" + h.hexdigest()[:16]


def main():
    os.chdir(ROOT)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target_dir):
        print("tsebench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "tsebench"),
           "--sweepd", os.path.join(release, "sweepd"),
           "--expected", os.path.join("tsebench", "expected.json"),
           "--work", ".bench_work"] + sys.argv[1:]
    env = dict(os.environ, TSEBENCH_RUSTC=rustc_version(), TSEBENCH_COMMIT=commit())
    # A session of its own, so a timed-out run takes its daemon down too.
    child = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("tsebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
