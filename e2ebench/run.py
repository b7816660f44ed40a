#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a source tree.

    python3 e2ebench/run.py --workload lookup|churn|campus_day \
        --seed N --seconds S --trace 0|1

Builds e2ebench/main.exe with dune (the tree's own libraries, from
source), runs it, and passes its standard output through: the last line
is the result object {"correct", "attempted", "failed", "metrics"}.
Reports, spans and same-seed determinism records go to .e2ebench/.
Exits non-zero, printing no result, when the tree cannot be built.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
# The longest run, an untraced campus_day, took 60-69 s on a 2-vCPU
# Xeon VM (a traced one 61 s).  170 s leaves room for the slowest of
# those to run 2.4 times as slow, and the command still ends within 180 s.
RUN_TIMEOUT_S = 170
OUT_DIR = ".e2ebench"
SKIP_DIRS = {"_build", ".git", OUT_DIR, ".bench_build", "__pycache__"}


def fail(msg, code):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def tree_id(root):
    """A content hash of the source tree, for provenance and for keying
    the determinism records: the same sources give the same id with or
    without a git checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if not os.path.isfile(path) or os.path.islink(path):
                continue
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    ident = "tree:" + h.hexdigest()[:16]
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                capture_output=True, text=True, timeout=30).stdout.strip()
            if rev:
                ident += "-git:" + rev
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def run(cmd, timeout, **kw):
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out: " + " ".join(cmd), 4)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["lookup", "churn", "campus_day"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("e2ebench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of the source tree (no %s here)" % need, 2)

    if shutil.which("dune") is None:
        fail("dune is not on PATH", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(["dune", "build", "--root", ".", "./e2ebench/main.exe"],
                  BUILD_TIMEOUT_S, cwd=root, env=env,
                  stdout=sys.stderr)
    if code != 0:
        fail("build failed", 3)

    exe = os.path.join(root, "_build", "default", "e2ebench", "main.exe")
    code, out = run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--commit", tree_id(root)],
        RUN_TIMEOUT_S, cwd=root, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
