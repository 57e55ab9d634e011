#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep|train|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # tiny inputs, every workload, both modes

The benchmark itself is perfbench/perfbench.exe (OCaml, built here with
dune together with the neurovec executable the serve workload spawns).
Its last line of standard output is the result object, which this script
checks and passes through; everything it writes stays in _build/ and
.perfbench-run/ under the current directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("sweep", "train", "serve")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join("_build", "default", "bin", "neurovec_cli.exe")
SOURCES = ("dune-project", "lib", "bin", "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DEADLINE_S = 170.0  # per run, after the build


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_rev():
    """The git revision, or a digest of the sources outside a git tree."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha1()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    missing = [s for s in SOURCES + (os.path.join("perfbench", "dune"),)
               if not os.path.exists(s)]
    if missing:
        fail("run from the root of a neurovectorizer checkout (missing: %s)"
             % ", ".join(missing))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        out = subprocess.run(["dune", "build", "--root", ".", EXE, CLI],
                             capture_output=True, text=True, env=env,
                             timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        fail("build failed")


def run_once(workload, seed, seconds, trace, smoke, rev, deadline):
    """Run one workload; returns (exit code, stdout lines)."""
    work = os.path.join(".perfbench-run", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cli", os.path.abspath(CLI), "--work-dir", work, "--rev", rev]
    if smoke:
        cmd.append("--smoke")
    # a session of its own, so a timeout stops the daemon it spawns too
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s run timed out" % workload, 3)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    return r if isinstance(r, dict) and set(r) == RESULT_KEYS else None


def smoke(rev, deadline):
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_once(w, 1, 1, trace, True, rev, deadline)
            r = result_of(lines)
            good = code == 0 and r is not None and r["correct"]
            ok = ok and good
            print("smoke %-5s trace=%d: %s" % (w, trace, "ok" if good else "FAIL"))
            if not good:
                print("\n".join(lines[-5:]))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs on every workload, output checks on")
    args = ap.parse_args()
    build()
    start = time.time()
    rev = source_rev()
    if args.smoke:
        sys.exit(0 if smoke(rev, start + 900) else 1)
    if args.workload is None:
        fail("--workload is required")
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace,
                           False, rev, start + DEADLINE_S)
    if result_of(lines) is None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        fail("the benchmark printed no result", 4)
    print("\n".join(lines), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
