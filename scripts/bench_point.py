#!/usr/bin/env python3
"""Turn paired benchmark runs into one trajectory point, BENCH_<pr>.json.

    python3 scripts/bench_point.py BENCH_16.json --pr 16 \\
        --parent-commit 307191e --change-commit HEAD \\
        --run kernels 11 parent-1.log change-1.log \\
        --run kernels 11 parent-2.log change-2.log ...

Each `--run WORKLOAD SEED PARENT_LOG CHANGE_LOG` is one pair: the
standard output of `python3 perfbench/run.py --workload WORKLOAD --seed
SEED` on a build of the parent commit and on a build of the change, run
one after the other. The last line of each log is the run's JSON result
(`correct`, `attempted`, `failed`, `metrics`).

For every workload and end-to-end metric of BENCHMARK.json the point
records the parent's and the change's median and quartiles (nearest
rank, as perfbench computes them), the change's median over the
parent's, how many pairs the change won (the metric's better direction
from BENCHMARK.json), and the values of every pair; plus the seeds,
`nproc` and both commits. A run that failed a check or has
no result is an error: a trajectory point is made of correct runs only.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result(log):
    """The JSON result line of one run's output."""
    lines = [l for l in Path(log).read_text().splitlines() if l.startswith("{")]
    if not lines:
        sys.exit(f"bench_point.py: {log}: no JSON result line")
    r = json.loads(lines[-1])
    if not r.get("correct") or r.get("failed", 1) != 0:
        sys.exit(f"bench_point.py: {log}: the run failed a check")
    return r


def values(r, names):
    """The run's value of each metric in `names` it reports."""
    return {m: r["metrics"][m]["value"] for m in names if m in r["metrics"]}


def quantile(xs, q):
    """Nearest-rank quantile (perfbench's `util::quantile`)."""
    v = sorted(xs)
    rank = min(max(math.ceil(q * len(v)), 1), len(v))
    return v[rank - 1]


def summary(xs):
    return {
        "median": quantile(xs, 0.5),
        "q1": quantile(xs, 0.25),
        "q3": quantile(xs, 0.75),
    }


def commit(rev):
    """`rev` as a full commit id when git can resolve it."""
    done = subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else rev


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-commit", required=True)
    ap.add_argument("--seconds", type=int, default=30, help="run.py --seconds of every run")
    ap.add_argument("--run", nargs=4, action="append", required=True,
                    metavar=("WORKLOAD", "SEED", "PARENT_LOG", "CHANGE_LOG"))
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    workloads = {}
    for workload, seed, parent_log, change_log in args.run:
        w = workloads.setdefault(workload, {"seeds": [], "pairs": []})
        if int(seed) not in w["seeds"]:
            w["seeds"].append(int(seed))
        p, c = result(parent_log), result(change_log)
        w["pairs"].append({
            "seed": int(seed),
            "parent": values(p, better),
            "change": values(c, better),
            "attempted": [p["attempted"], c["attempted"]],
        })

    for w in workloads.values():
        metrics = {}
        for m, direction in better.items():
            pairs = [(x["parent"][m], x["change"][m]) for x in w["pairs"]
                     if m in x["parent"] and m in x["change"]]
            if not pairs:
                continue
            parent = summary([a for a, _ in pairs])
            change = summary([b for _, b in pairs])
            wins = sum((b < a) if direction == "lower" else (b > a) for a, b in pairs)
            metrics[m] = {
                "better": direction,
                "parent": parent,
                "change": change,
                "ratio": change["median"] / parent["median"] if parent["median"] else None,
                "parent_iqr": parent["q3"] - parent["q1"],
                "wins": wins,
                "pairs": len(pairs),
            }
        w["metrics"] = metrics

    point = {
        "pr": args.pr,
        "parent_commit": commit(args.parent_commit),
        "change_commit": commit(args.change_commit),
        "nproc": os.cpu_count(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
