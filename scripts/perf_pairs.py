#!/usr/bin/env python3
"""Interleaved perfbench pairs: a parent checkout against a changed one.

Usage:
  perf_pairs.py --parent DIR --change DIR --workload NAME|all
                --pairs N --seconds S --seed K [--raw FILE]

Runs each checkout's own perfbench/run.py (untraced) N times per
workload, in pairs. Pair i runs the parent first when i is even and the
change first when i is odd, so drift on a shared host falls on both
sides alike. Every run must end with "correct": true and "failed": 0;
any other run stops the script with exit code 1.

For every end-to-end metric BENCHMARK.json declares (the file beside
this script; nothing is written anywhere), it prints per workload:

  * the parent's and the change's medians over the N runs;
  * the parent's interquartile range, the noise a difference must beat;
  * the change of the median in percent;
  * the pairs the change won, in the metric's "better" direction
    (a tie wins for neither side);
  * whether the change's median stays inside the metric's "bound" of
    the parent's median ("ok") or leaves it ("OUT").

--raw FILE also writes every run's metrics as JSON, pair by pair.

Exit codes: 0 done, 1 a run failed, 2 usage error.
"""

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["route-square", "route-wide-mixed", "serve-zipf"]


class RunFailed(Exception):
    pass


def quantile(values, q):
    """The q-quantile of `values`, interpolating linearly between ranks."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_order(pair):
    """The sides of pair `pair` in the order they run."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def check_result(result, label):
    """The metric values of one run.py result, by name; raises unless
    the run is correct and nothing failed."""
    if not result.get("correct") or result.get("failed", 1) != 0:
        raise RunFailed(f"{label}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def summarize(parent_runs, change_runs, metrics):
    """One row per declared metric. parent_runs[i] and change_runs[i]
    are the metric dicts of pair i; `metrics` are BENCHMARK.json's
    end_to_end entries (name, better, bound)."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        higher = metric["better"] == "higher"
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        parent_median = quantile(parent, 0.5)
        change_median = quantile(change, 0.5)
        won = sum(1 for p, c in zip(parent, change)
                  if (c > p if higher else c < p))
        if higher:
            within = change_median >= parent_median * (1 - metric["bound"])
        else:
            within = change_median <= parent_median * (1 + metric["bound"])
        rows.append({
            "name": name,
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": quantile(parent, 0.75) - quantile(parent, 0.25),
            "change_pct": (None if parent_median == 0 else
                           100.0 * (change_median - parent_median)
                           / abs(parent_median)),
            "won": won,
            "pairs": len(parent),
            "within_bound": within,
        })
    return rows


def format_rows(workload, rows):
    lines = [f"== {workload}",
             f"{'metric':<18} {'parent':>12} {'change':>12} "
             f"{'parent IQR':>11} {'change':>8} {'won':>6}  bound"]
    for row in rows:
        pct = ("n/a" if row["change_pct"] is None
               else f"{row['change_pct']:+.1f}%")
        lines.append(
            f"{row['name']:<18} {row['parent_median']:>12.6g} "
            f"{row['change_median']:>12.6g} {row['parent_iqr']:>11.4g} "
            f"{pct:>8} {row['won']:>3}/{row['pairs']:<2}  "
            f"{'ok' if row['within_bound'] else 'OUT'}")
    return "\n".join(lines)


def run_perfbench(checkout, workload, args, label):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{label}: run.py exited with {done.returncode}")
    return check_result(json.loads(lines[-1]), label)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--raw")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as spec:
        metrics = json.load(spec)["end_to_end"]
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    runs = {w: {"parent": [], "change": []} for w in workloads}
    try:
        for pair in range(args.pairs):
            for workload in workloads:
                for side in run_order(pair):
                    label = f"pair {pair} {workload} {side}"
                    print(label, file=sys.stderr, flush=True)
                    runs[workload][side].append(run_perfbench(
                        checkouts[side], workload, args, label))
    except RunFailed as failure:
        print(f"perf_pairs: {failure}", file=sys.stderr)
        return 1
    if args.raw:
        with open(args.raw, "w") as raw:
            json.dump(runs, raw, indent=1)
    for workload in workloads:
        print(format_rows(workload, summarize(runs[workload]["parent"],
                                              runs[workload]["change"],
                                              metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
