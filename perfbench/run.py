#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-nominal --seed 0 --seconds 12 --trace 0

Builds perfbench/main.exe with dune, runs one workload, and passes its
output through.  The last line of stdout is the result object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics under --trace 0 and the per-layer metrics under --trace 1, as
BENCHMARK.json declares them.  Exits non-zero, without a result, when
the sources are missing or do not build, and non-zero after printing the
result when a correctness check failed.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["serve-nominal", "serve-overload", "paper-eval"]
TARGET = "./perfbench/main.exe"
EXE = "./_build/default/perfbench/main.exe"


def revision():
    """The git revision, or a digest of the library sources when the
    tree is not a git checkout."""
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.md5()
    for d, _, files in sorted(os.walk("lib")):
        for f in sorted(files):
            path = os.path.join(d, f)
            h.update(path.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return "src-md5:" + h.hexdigest()[:12]


def declared(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except OSError:
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(dune-project and lib/ are missing here)", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", TARGET],
                           env=env, capture_output=True, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", revision()]
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode

    result = json.loads(run.stdout.strip().splitlines()[-1])
    names = declared(args.trace)
    if names is not None and set(result["metrics"]) != names:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(names - set(result["metrics"])),
                 sorted(set(result["metrics"]) - names)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
