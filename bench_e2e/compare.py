#!/usr/bin/env python3
"""Compare bench_e2e results of a parent and a change (standard library only).

Collect at least ten alternating pairs, one seed per pair, parent first on
even pairs and change first on odd ones:

    python3 bench_e2e/compare.py collect PARENT_CHECKOUT CHANGE_CHECKOUT OUT \\
        [--pairs 10] [--seconds 20] [--trace 0] [--workloads w ...]

Each result lands in OUT/{parent,change}/<workload>.<seed>.json (the last
line bench_e2e printed). Then judge them:

    python3 bench_e2e/compare.py report OUT/parent OUT/change \\
        [--benchmark BENCHMARK.json]

For every workload and metric, with bounds and directions from
BENCHMARK.json:
  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range, in the better direction;
  REGRESSED   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run;
  better      as unresolved, except every change run beats every parent run;
  ok          none of the above.
A gain does not count when the change fails more operations than the
parent. One row per workload; exit status 1 when anything regressed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("local_pipeline", "stream_tcp", "stream_shm", "reconfig_live")


def collect(args):
    out = Path(args.out)
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    for name in sides:
        (out / name).mkdir(parents=True, exist_ok=True)
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in args.workloads:
            for side in order:
                command = [sys.executable, "bench_e2e/run.py", "--workload",
                           workload, "--seed", str(seed), "--seconds",
                           str(args.seconds), "--trace", str(args.trace)]
                done = subprocess.run(command, cwd=sides[side],
                                      capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                last = lines[-1] if lines else ""
                (out / side / f"{workload}.{seed}.json").write_text(last + "\n")
                print(f"pair {pair} {side:6s} {workload:15s} seed {seed} "
                      f"exit {done.returncode}", flush=True)
    return 0


def load(directory):
    """{workload: {seed: result}} from <workload>.<seed>.json files."""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        workload, seed = path.stem.rsplit(".", 1)
        try:
            runs[workload][int(seed)] = json.loads(path.read_text())
        except (ValueError, json.JSONDecodeError):
            print(f"skipping unreadable {path}", file=sys.stderr)
    return runs


def metric_specs(benchmark):
    spec = json.loads(Path(benchmark).read_text())
    table = {}
    for entry in spec.get("end_to_end", []):
        table[entry["name"]] = (entry["better"], entry["bound"])
    for entry in spec.get("per_layer", []):
        table[entry["name"]] = (entry["better"], None)
    return table


def judge(parent, change, better, bound):
    """Verdict and relative median change (positive = worse)."""
    pairs = [(parent[s], change[s]) for s in sorted(parent) if s in change]
    p_all, c_all = list(parent.values()), list(change.values())
    if len(p_all) < 2 or not c_all:
        return "too-few-runs", 0.0
    sign = 1.0 if better == "lower" else -1.0

    def wins(a, b):  # a strictly better than b
        return sign * (a - b) < 0

    p_med, c_med = statistics.median(p_all), statistics.median(c_all)
    q1, _, q3 = statistics.quantiles(p_all, n=4)
    iqr = q3 - q1
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    won = sum(1 for p, c in pairs if wins(c, p))
    if (len(pairs) >= 10 and won >= 0.9 * len(pairs)
            and abs(c_med - p_med) > iqr and wins(c_med, p_med)):
        return "gain", worse
    if bound is None:
        return "ok", worse
    if p_med and iqr / abs(p_med) > bound:
        if all(wins(c, p) for c in c_all for p in p_all):
            return "better", worse
        return "unresolved", worse
    if worse > bound:
        return "REGRESSED", worse
    return "ok", worse


def report(args):
    specs = metric_specs(args.benchmark)
    parent, change = load(args.parent), load(args.change)
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        failed = [sum(r.get("failed", 0) for r in runs.values())
                  for runs in (p_runs, c_runs)]
        incorrect = sum(1 for r in c_runs.values() if not r.get("correct"))
        cells = []
        names = sorted({n for r in p_runs.values() for n in r["metrics"]})
        for name in names:
            if name not in specs:
                continue
            better, bound = specs[name]
            p_vals = {s: r["metrics"][name]["value"] for s, r in p_runs.items()
                      if name in r["metrics"]}
            c_vals = {s: r["metrics"][name]["value"] for s, r in c_runs.items()
                      if name in r["metrics"]}
            verdict, worse = judge(p_vals, c_vals, better, bound)
            if verdict == "gain" and failed[1] > failed[0]:
                verdict = "gain-void(more failures)"
            regressed |= verdict == "REGRESSED"
            cells.append(f"{name}={verdict}({-100 * worse:+.1f}%)")
        pairs = len(set(p_runs) & set(c_runs))
        status = f"pairs={pairs}" + ("(<10: no gain possible)"
                                     if pairs < 10 else "")
        if incorrect:
            status += f" INCORRECT-RUNS={incorrect}"
            regressed = True
        print(f"{workload:15s} {status} " + " ".join(cells))
    print("(percent: change vs parent median, positive = better)")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run alternating pairs")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("out")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--seconds", type=int, default=20)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS))
    r = sub.add_parser("report", help="judge two result directories")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args()
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
