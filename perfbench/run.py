#!/usr/bin/env python3
"""Build and run the Trusted-CVS closed-loop benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The load generator (perfbench/tcvs_perfbench.ml) is built from source under the
release profile into .bench_build/, then run pinned with taskset to one
CPU together with every server process it starts. The last line of
standard output is the result object; see perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
PROFILE = "release"
TARGET = "perfbench/tcvs_perfbench.exe"
EXE = os.path.join(BUILD_DIR, "default", TARGET)
WORKLOADS = ["read-hot", "commit-large", "cluster-mixed"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", PROFILE,
           "--build-dir", BUILD_DIR, TARGET]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=700)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    if r.returncode != 0 or not os.path.exists(EXE):
        log("perfbench: build failed")
        return False
    return True


def git_rev():
    """HEAD's commit id when the tree is a git checkout, else 'none'."""
    try:
        head = open(".git/HEAD").read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = os.path.join(".git", ref)
            if os.path.exists(path):
                return open(path).read().strip()
            for line in open(".git/packed-refs"):
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "none"


def source_digest():
    """SHA-256 over the program and benchmark sources, so a result names
    the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench"]:
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode() + b"\0" + open(p, "rb").read())
    return h.hexdigest()[:16]


def pinned_cpu():
    return max(os.sched_getaffinity(0))


def run_generator(args, timeout):
    """Run the load generator on one CPU; return (exit code, stdout lines)."""
    cpu = pinned_cpu()
    cmd = ["taskset", "-c", str(cpu), EXE, "--cpu", str(cpu),
           "--rev", git_rev(), "--src", source_digest(), "--profile", PROFILE] + args
    # its own session, so a timeout can stop the servers it started too
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        log("perfbench: load generator timed out")
        return 1, []
    return p.returncode, out.splitlines()


def last_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return res


def self_check():
    """Short runs of every workload: every declared metric is emitted
    with its unit, honest runs fail no op, and a reply with one flipped
    VO byte is counted as a failed op."""
    spec = json.load(open("BENCHMARK.json"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_generator(["--workload", wl, "--seed", "7", "--ops", "300",
                                      "--trace", str(trace)], timeout=170)
            res = last_result(lines)
            tag = f"{wl} trace={trace}"
            if code != 0 or res is None:
                problems.append(f"{tag}: no result (exit {code})")
                continue
            for line in lines[:-1]:
                if line.startswith("#"):
                    print(line)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics {sorted(got.items())} != declared "
                                f"{sorted(wanted[trace].items())}")
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{tag}: honest run failed {res['failed']} ops")
            print(f"ok {tag}: {res['attempted']} ops verified")
        code, lines = run_generator(["--workload", wl, "--seed", "7", "--ops", "300",
                                  "--trace", "0", "--corrupt-reply"], timeout=170)
        res = last_result(lines)
        if res is None or res["failed"] != 1 or res["correct"]:
            problems.append(f"{wl}: flipped VO byte not counted as exactly one failed op "
                            f"({res and res['failed']})")
        else:
            print(f"ok {wl}: flipped VO byte counted as 1 failed op of {res['attempted']}")
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and a.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if a.self_check:
        return self_check()
    code, lines = run_generator(["--workload", a.workload, "--seed", str(a.seed),
                              "--seconds", str(a.seconds), "--trace", str(a.trace)],
                             timeout=170)
    res = last_result(lines)
    if code != 0 or res is None:
        log(f"perfbench: load generator failed (exit {code})")
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
