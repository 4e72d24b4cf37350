"""Paired benchmark runs of two source checkouts, judged by the rule for claiming a gain.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seed S [--pairs 10] [--seconds 28]

Runs `perfbench/run.py --trace 0` for one workload and seed in the PARENT and
the CHANGE checkout, one pair at a time, alternating which side runs first.
A run that reports `correct: false`, or any failed operation, stops the script
before anything is summarized.  For every end-to-end metric that CHANGE's
BENCHMARK.json lists, it then prints each side's median and quartiles, the
pairs the change won (a tie counts for neither side), whether a gain holds
(the change wins at least nine tenths of the pairs, and the medians differ,
in the better direction, by more than the parent's interquartile range), and
a regression verdict against the metric's BENCHMARK.json bound, a fraction of
the parent's median:

- `no worse`: the change's median is worse than the parent's by at most the bound;
- `worse`: it is worse by more;
- `unresolved`: the parent's interquartile range is wider than the bound, so
  the runs cannot tell, unless every run of the change beats every run of the
  parent (then `no worse`).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the sorted values."""
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, median(values), q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """The paired runs of one metric: each side's quartiles, the change's wins and whether a
    gain holds (wins in at least 9 of every 10 pairs, and a median gap in the better
    direction larger than the parent's interquartile range)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError(f"need at least two pairs, got {len(parent)} and {len(change)} runs")
    sign = 1.0 if better == "lower" else -1.0  # the gain of a pair is sign * (parent - change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0.0)
    ours, theirs = quartiles(parent), quartiles(change)
    gap = sign * (ours[1] - theirs[1])
    return {"parent": ours, "change": theirs, "wins": wins, "pairs": len(parent), "gap": gap,
            "gain": 10 * wins >= 9 * len(parent) and gap > ours[2] - ours[0]}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """"no worse", "worse" or "unresolved": the change's median against the parent's, with the
    bound a fraction of the parent's median; unresolved when the parent's interquartile range
    is wider than the bound, unless every run of the change beats every run of the parent."""
    sign = 1.0 if better == "lower" else -1.0  # a run is worse by sign * (change - parent)
    q1, mid, q3 = quartiles(parent)
    if all(sign * (p - c) > 0.0 for p in parent for c in change):
        return "no worse"
    if q3 - q1 > bound * abs(mid):
        return "unresolved"
    return "no worse" if sign * (median(change) - mid) <= bound * abs(mid) else "worse"


def checked(result: dict, where: str) -> dict:
    """A run's result, refused unless it is correct and no operation failed."""
    if result.get("correct") is not True or result.get("failed", 1) != 0 or not result.get("metrics"):
        raise SystemExit(f"{where}: refused, correct={result.get('correct')} "
                         f"failed={result.get('failed')} of {result.get('attempted')}")
    return result


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in the checkout root, its final JSON line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: perfbench exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return checked(json.loads(lines[-1]), str(root))


def main(argv=None):
    parser = argparse.ArgumentParser(description="paired perfbench runs of two checkouts")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=28.0)
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench(getattr(args, side), args.workload, args.seed, args.seconds)["metrics"])
        print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
            f"{side} wall_s {runs[side][-1]['wall_s']['value']:.6g}" for side in order), flush=True)
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s runs")
    for metric in metrics:
        name = metric["name"]
        parent, change = ([r[name]["value"] for r in runs[side]] for side in ("parent", "change"))
        s = summarize(parent, change, metric["better"])
        sides = "  ".join(f"{side} {s[side][1]:.6g} [{s[side][0]:.6g}, {s[side][2]:.6g}]"
                          for side in ("parent", "change"))
        print(f"  {name} ({metric['unit']}, {metric['better']} is better): {sides}  "
              f"median {100.0 * (s['change'][1] / s['parent'][1] - 1.0):+.1f} %  "
              f"change wins {s['wins']}/{s['pairs']}  gain {'holds' if s['gain'] else 'not shown'}  "
              f"{verdict(parent, change, metric['better'], metric['bound'])} "
              f"(bound {metric['bound']:g})")


if __name__ == "__main__":
    main()
