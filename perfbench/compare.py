"""Compare two benchmark result files, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each file holds the records run.py appends, one per run.  For every workload
and end-to-end metric (untraced runs) it prints each side's median and
quartiles, the pairs the new side won (runs paired by seed, ties count for
neither side) and a verdict:

    improved             the new side won at least 9/10 of the pairs and the
                         medians differ by more than the base runs' quartile
                         distance
    no worse than bound  the new median is within the metric's bound of the
                         base median
    unresolved           the base runs spread wider than the bound, and not
                         every new run beats every base run
    worse than bound     the new median is worse than the base by more than
                         the bound

Per-layer metrics (traced runs) are listed by median, without a verdict, and
the pooled wall_s samples of each side give the highest percentile with at
least ten samples beyond it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import tail

HERE = Path(__file__).resolve().parent


def load(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_seed(records: list, workload: str, trace: int, metric: str) -> dict:
    """seed -> values of one metric, in run order."""
    out = defaultdict(list)
    for r in records:
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]:
            out[r["seed"]].append(r["metrics"][metric]["value"])
    return out


def flat(values_by_seed: dict) -> list:
    return [v for values in values_by_seed.values() for v in values]


def fmt(q: tuple) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(base: list, new: list, pairs: list, better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    b1, b_med, b3 = quartiles(base)
    n_med = statistics.median(new)
    gain = sign * (n_med - b_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "improved", wins
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if b_med and (b3 - b1) / abs(b_med) > bound and not all_better:
        return "unresolved", wins
    if b_med and -gain / abs(b_med) > bound:
        return "worse than bound", wins
    return "no worse than bound", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)
    for label, records in (("base", base), ("new", new)):
        envs = {json.dumps({k: v for k, v in r["env"].items() if k != "loadavg"}, sort_keys=True)
                for r in records}
        loads = [r["env"]["loadavg"][0] for r in records]
        print(f"{label}: {len(records)} runs; env {' | '.join(sorted(envs))}; "
              f"1-min load at start {min(loads, default=0):.2f}..{max(loads, default=0):.2f}")

    status = 0
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    print(f"\n{'workload':15s} {'metric':12s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'won':>7s}  verdict")
    for wl in workloads:
        for m in spec["end_to_end"]:
            b, n = by_seed(base, wl, 0, m["name"]), by_seed(new, wl, 0, m["name"])
            if not b or not n:
                continue
            pairs = [pair for s in sorted(b.keys() & n.keys()) for pair in zip(b[s], n[s])]
            result, wins = verdict(flat(b), flat(n), pairs, m["better"], m["bound"])
            status = status or result == "worse than bound"
            print(f"{wl:15s} {m['name']:12s} {fmt(quartiles(flat(b))):34s} "
                  f"{fmt(quartiles(flat(n))):34s} {wins:3d}/{len(pairs):<3d}  "
                  f"{result} (bound {m['bound']:g})")
        for label, records in (("base", base), ("new", new)):
            walls = [body["wall_s"] for r in records if r["workload"] == wl and not r["trace"]
                     for body in r["bodies"]]
            found = tail(walls) if walls else None
            print(f"{wl:15s} wall_s pooled {label}: n={len(walls)}"
                  + (f", median {statistics.median(walls):.5g} s" if walls else "")
                  + (f", p{found[0]:.0f} {found[1]:.5g} s" if found else ", tail needs >= 11"))

    print(f"\n{'workload':15s} {'per-layer metric':28s} {'base median':>14s} {'new median':>14s}")
    for wl in workloads:
        for m in spec["per_layer"]:
            b = flat(by_seed(base, wl, 1, m["name"]))
            n = flat(by_seed(new, wl, 1, m["name"]))
            if b and n:
                print(f"{wl:15s} {m['name']:28s} {statistics.median(b):14.6g} "
                      f"{statistics.median(n):14.6g} {m['unit']}")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
