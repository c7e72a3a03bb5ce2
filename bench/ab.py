#!/usr/bin/env python3
"""Same-host A/B timing of the repository benchmark.

Run from the repository root (or through `make ab`):

    python3 bench/ab.py --rev HEAD~1 --workload paper-eval [-n 10] [--seed 7]

Checks REV out into a detached git worktree under _build/ab/, then runs
`python3 perfbench/run.py --trace 0` alternately in that checkout and in
the working tree, N times each, alternating which side runs first in a
pair.  Prints each metric's median and quartiles for both sides, the
change of the medians, and in how many pairs the working tree read
better (in the direction BENCHMARK.json declares).  A run that fails
or reports correct=false stops the comparison.  The run length is
perfbench/run.py's own default on both sides.  The worktree is removed
afterwards.  Only perfbench/run.py is invoked, so both sides
measure exactly what the benchmark measures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_bench(cwd, workload, seed):
    """One `perfbench/run.py --trace 0` run in [cwd]: its metric values.
    Stops the A/B when the run fails or reports correct=false, so a side
    whose checks fail never counts toward the medians or the pair wins."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("ab: run in %s failed (exit %d)" % (cwd, r.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("ab: run in %s reported correct=false" % cwd)
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("-n", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if not os.path.isfile("perfbench/run.py"):
        sys.exit("ab: run from the repository root")
    sha = git("rev-parse", "--verify", args.rev + "^{commit}")
    tree = os.path.join("_build", "ab", sha[:12])
    if os.path.exists(tree):
        shutil.rmtree(tree)
        git("worktree", "prune")
    git("worktree", "add", "--detach", tree, sha)
    runs = {"rev": [], "tree": []}
    try:
        for i in range(args.n):
            sides = (("rev", tree), ("tree", "."))
            for side, cwd in sides if i % 2 == 0 else reversed(sides):
                m = run_bench(cwd, args.workload, args.seed)
                runs[side].append(m)
                print("pair %d %-4s wall_s %s" % (i + 1, side, m.get("wall_s")),
                      flush=True)
    finally:
        git("worktree", "remove", "--force", tree)

    with open("BENCHMARK.json") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    print("\n%s, seed %d, %d pairs: %s (%s) vs working tree"
          % (args.workload, args.seed, args.n, args.rev, sha[:12]))
    print("%-14s %28s %28s %9s %8s" % ("metric", "rev q1/median/q3",
                                       "tree q1/median/q3", "change",
                                       "tree won"))
    for name in sorted(runs["rev"][0]):
        xs = [m[name] for m in runs["rev"]]
        ys = [m[name] for m in runs["tree"]]
        a, b = quartiles(xs), quartiles(ys)
        change = "%+.1f%%" % (100.0 * (b[1] - a[1]) / a[1]) if a[1] else "n/a"
        sign = -1 if better.get(name) == "higher" else 1
        won = sum(1 for x, y in zip(xs, ys) if sign * (y - x) < 0)
        print("%-14s %28s %28s %9s %8s" % (
            name, "%.4g/%.4g/%.4g" % a, "%.4g/%.4g/%.4g" % b, change,
            "%d/%d" % (won, args.n)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
