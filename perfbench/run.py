#!/usr/bin/env python3
"""Build the benchmark harness and run one workload.

    python3 perfbench/run.py --workload oneshot|certify|session|expand \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `perfbench/` (a cargo package of
its own, linking the workspace crates by path) in release mode, offline,
into `$CARGO_TARGET_DIR` or `perfbench/target`, prints a header naming the
machine and the source revision, then runs the harness with the given
arguments. The harness's last line of standard output is the JSON result;
its exit code is passed on. Build output goes to standard error.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision():
    """The commit checked out, or "none" outside a git checkout. Git is told
    where the repository is, so it never looks above the checkout."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return "none"
    env = dict(os.environ, GIT_DIR=git_dir, GIT_WORK_TREE=ROOT)
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 (first 12 hex digits) over the sources the harness builds
    from, so runs outside a git checkout still name what they measured."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(HERE, "Cargo.toml")]
    for top in (os.path.join(ROOT, "crates"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    code = subprocess.run(cmd, stdout=sys.stderr).returncode
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        sys.exit(code)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "qbf-perfbench")


def main():
    binary = build()
    print(f'# perfbench nproc={os.cpu_count()} cpu="{cpu_model()}" '
          f"rev={git_revision()} src={source_digest()}", flush=True)
    sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
