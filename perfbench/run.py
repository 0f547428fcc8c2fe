#!/usr/bin/env python3
"""Build the benchmark harness and spand from this checkout, then run it.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --write-spec
    python3 perfbench/run.py compare old.jsonl new.jsonl
    python3 perfbench/run.py ab ../parent --workload scan --pairs 10 --out ab/

Both binaries are built from source into .bench_build/ at the root of
the checkout, with the Go build cache there too, so a run reads and
writes nothing outside the checkout. A build is reused while no Go
source, go.mod or go.sum file of the checkout has changed. The harness
replaces this process, so its exit status and output are the run's.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
HARNESS = os.path.join(BIN, "perfbench")
SPAND = os.path.join(BIN, "spand")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for f in sorted(files):
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                yield os.path.join(base, f)


def tree_hash():
    h = hashlib.sha256()
    for path in source_files():
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    return env


def build(tree):
    stamp = os.path.join(BIN, "tree")
    if all(os.path.exists(p) for p in (HARNESS, SPAND, stamp)):
        with open(stamp) as f:
            if f.read() == tree:
                return
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")
    env = go_env()
    for d in (BIN, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    for out, pkg, cwd in ((SPAND, "./cmd/spand", ROOT), (HARNESS, ".", HERE)):
        tmp = out + ".new"
        r = subprocess.run(["go", "build", "-o", tmp, pkg], cwd=cwd, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("building %s failed" % pkg)
        os.replace(tmp, out)
    with open(stamp, "w") as f:
        f.write(tree)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def ab(args):
    """Run this checkout and OLD alternately, then compare them.

    Pair i runs both trees on seed first-seed + i, the old one first in
    even pairs and the new one first in odd pairs, each recording to
    OUT/old.jsonl or OUT/new.jsonl. OLD must be a checkout with the same
    perfbench directory. The exit status is compare's.
    """
    p = argparse.ArgumentParser(prog="run.py ab")
    p.add_argument("old", help="checkout of the tree to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", default=None)
    p.add_argument("--out", required=True, help="directory for the two record files")
    a = p.parse_args(args)
    os.makedirs(a.out, exist_ok=True)
    sides = {
        "old": os.path.join(os.path.abspath(a.old), "perfbench", "run.py"),
        "new": os.path.join(HERE, "run.py"),
    }
    recs = {k: os.path.abspath(os.path.join(a.out, k + ".jsonl")) for k in sides}
    for path in recs.values():
        if os.path.exists(path):
            fail("%s exists: give a fresh --out directory" % path)
    for i in range(a.pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for side in order:
            cmd = [sys.executable, sides[side], "--workload", a.workload,
                   "--seed", str(a.first_seed + i), "--trace", "0", "--record", recs[side]]
            if a.seconds is not None:
                cmd += ["--seconds", a.seconds]
            r = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if r.returncode != 0:
                fail("pair %d, %s tree: exit status %d" % (i, side, r.returncode))
            print("pair %d %s done" % (i, side), file=sys.stderr)
    os.execv(HARNESS, [HARNESS, "compare", recs["old"], recs["new"]])


def main():
    for need in ("go.mod", os.path.join("cmd", "spand")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a full checkout of the repository" % need)
    tree = tree_hash()
    build(tree)
    args = sys.argv[1:]
    if args[:1] == ["ab"]:
        ab(args[1:])
    if args[:1] == ["compare"]:
        os.execv(HARNESS, [HARNESS] + args)
    if args[:1] == ["--write-spec"]:
        os.execv(HARNESS, [HARNESS, "--write-spec", os.path.join(ROOT, "BENCHMARK.json")])
    sys.stdout.flush()
    os.execv(HARNESS, [HARNESS] + args + [
        "--spand", SPAND,
        "--tree", tree,
        "--commit", commit(),
        "--spans-dir", os.path.join(BUILD, "spans"),
    ])


if __name__ == "__main__":
    main()
