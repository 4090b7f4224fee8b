#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

Builds the `wsn-serve` binary from the repository's own workspace and the
`perfbench` package (its own workspace, path dependencies on the
repository's crates) into $CARGO_TARGET_DIR (default `.bench_build`), then
runs `perfbench` with the given arguments. Build output goes to stderr;
the last line of stdout is the JSON result. Exits non-zero without a
result when the checkout lacks the repository's sources or a build fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT_FILES = ["Cargo.toml", "Cargo.lock", "crates/server/Cargo.toml", "crates/core/Cargo.toml"]
FINGERPRINT_DIRS = ["crates", "src", "perfbench/src"]


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def commit_id():
    """The git commit when there is one, plus a digest of the sources
    (the benchmark also runs in exported checkouts without .git)."""
    h = hashlib.sha256()
    for top in FINGERPRINT_DIRS + ["Cargo.lock", "perfbench/spec.json"]:
        paths = []
        if os.path.isdir(top):
            for d, dirs, files in os.walk(top):
                dirs.sort()
                paths += [os.path.join(d, f) for f in sorted(files) if f.endswith((".rs", ".toml"))]
        elif os.path.isfile(top):
            paths.append(top)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    tree = "src-" + h.hexdigest()[:16]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if git.returncode == 0 and git.stdout.strip():
            return f"{git.stdout.strip()}/{tree}"
    except (OSError, subprocess.SubprocessError):
        pass
    return tree


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                            stdout=sys.stderr, env=env)
    if result.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed (exit {result.returncode})")


def main():
    missing = [f for f in ROOT_FILES if not os.path.isfile(f)]
    if missing:
        fail("run from the root of a repository checkout; missing " + ", ".join(missing))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(["-p", "wsn-server", "--bin", "wsn-serve"], target)
    build(["--manifest-path", "perfbench/Cargo.toml"], target)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(release, "wsn-serve"),
        "--commit", commit_id(),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
