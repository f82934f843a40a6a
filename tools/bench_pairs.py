"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --parent HEAD~1 --pr N \
        --workload verify --seeds 1 7 --pairs 10
    python3 tools/bench_pairs.py --parent HEAD~1 --pr N --commands FILE --pairs 5

Extracts the parent revision with ``git archive REV | tar -x`` into a
temporary directory and runs ``bench/run.py`` there and in this working
tree, one run at a time, alternating which side runs first in each pair.
Each run's JSON result line is kept in ``BENCH_<pr>.json`` under ``runs``,
next to a ``summary`` per workload and seed: for every metric that
``BENCHMARK.json`` names, each side's median and quartiles (numpy's linear
percentiles), the parent's interquartile range, and in how many pairs the
change reads better, in the direction ``BENCHMARK.json`` gives, ties
counting for neither side.  Two fields state the acceptance rules:
``gain_rule_met``, that the change is better in at least 9 of every 10
pairs and its median beats the parent's by more than the parent's
interquartile range; and, for an end-to-end metric, ``within_bound``, that
the change median is worse than the parent median by at most the metric's
``bound`` times the parent median.  An existing file of that name is
extended: its runs are kept, new pairs are numbered after them, the summary
is recomputed over all of them, and its other keys stay as they are.

``--commands FILE`` times fixed ``nablainv`` commands instead, or as well.
FILE holds one command a line, its arguments after ``nablainv`` written as
in a POSIX shell (``#`` starts a comment line).  Each pair runs the command
once in a fresh ``python -m nablainv`` process on each side, the side that
runs first alternating over the pairs, earlier ones included, and records
the wall time, start-up included.  The
``commands`` section of ``BENCH_<pr>.json`` maps each command to each side's
``wall_s`` list and ``median_s``; new times extend the lists.  A command that
exits nonzero on either side stops the script, as its time would mean
nothing.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def extract(rev, into):
    """The files of revision ``rev`` of this repository, written under ``into``."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"bench_pairs: git archive {rev} failed")


def run_bench(tree, workload, seed, seconds, trace):
    """(return code, the JSON result of the last stdout line or None)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def read_commands(path):
    """The argument lists of the commands in ``path``, one a line."""
    lines = [line.strip() for line in Path(path).read_text().splitlines()]
    return [shlex.split(line) for line in lines if line and not line.startswith("#")]


def time_command(tree, argv):
    """Wall seconds of ``python -m nablainv argv`` run on the source in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nablainv", *argv], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if proc.returncode:
        sys.exit(f"bench_pairs: nablainv {shlex.join(argv)} exited {proc.returncode} in {tree}:"
                 f"\n{proc.stderr}")
    return wall


def time_commands(trees, commands, pairs, section):
    """Add ``pairs`` alternating timings of each command to ``section``, the
    ``commands`` mapping of a BENCH file."""
    for argv in commands:
        entry = section.setdefault(f"nablainv {shlex.join(argv)}", {})
        for side in ("parent", "change"):
            entry.setdefault(side, {"wall_s": []})
        done = min(len(entry[side]["wall_s"]) for side in ("parent", "change"))
        for pair in range(done, done + pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                entry[side]["wall_s"].append(time_command(trees[side], argv))
        for side in ("parent", "change"):
            entry[side]["median_s"] = float(np.median(entry[side]["wall_s"]))
        print(f"nablainv {shlex.join(argv)}: median {entry['parent']['median_s']:.4g} s parent, "
              f"{entry['change']['median_s']:.4g} s change", flush=True)


def summarise(runs, better, bounds=None):
    """{"<workload> seed <n>": {metric: statistics}} over the runs of each side.

    ``better`` maps a metric to "higher" or "lower", and ``bounds`` an
    end-to-end metric to its relative bound.
    """
    bounds = bounds or {}
    summary = {}
    groups = sorted({(r["workload"], r["seed"], r["trace"]) for r in runs})
    for workload, seed, trace in groups:
        mine = [r for r in runs if (r["workload"], r["seed"], r["trace"]) == (workload, seed, trace)
                and r["result"] is not None]
        pairs = sorted({r["pair"] for r in mine})
        side = {s: {r["pair"]: r["result"]["metrics"] for r in mine if r["side"] == s}
                for s in ("parent", "change")}
        pairs = [p for p in pairs if p in side["parent"] and p in side["change"]]
        if not pairs:
            continue
        entry = {}
        for name in side["parent"][pairs[0]]:
            if name not in better:
                continue
            parent = np.array([side["parent"][p][name]["value"] for p in pairs])
            change = np.array([side["change"][p][name]["value"] for p in pairs])
            sign = 1.0 if better[name] == "higher" else -1.0
            pq = np.percentile(parent, [25, 75])
            parent_median, change_median = float(np.median(parent)), float(np.median(change))
            iqr = float(pq[1] - pq[0])
            wins = int(np.sum(sign * (change - parent) > 0))
            gain = sign * (change_median - parent_median)
            entry[name] = {
                "parent_median": parent_median,
                "change_median": change_median,
                "parent_quartiles": pq.tolist(),
                "change_quartiles": np.percentile(change, [25, 75]).tolist(),
                "parent_iqr": iqr,
                "runs": len(pairs),
                "change_better_pairs": f"{wins} of {len(pairs)}",
                "gain_rule_met": bool(10 * wins >= 9 * len(pairs) and gain > iqr),
            }
            if name in bounds:
                entry[name]["within_bound"] = bool(
                    -gain <= bounds[name] * abs(parent_median))
        key = f"{workload} seed {seed}" + (" traced" if trace else "")
        summary[key] = entry
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--pr", required=True, help="writes BENCH_<pr>.json at the repository root")
    ap.add_argument("--workload", action="append", default=[],
                    help="a bench workload; repeat for several")
    ap.add_argument("--commands", metavar="FILE",
                    help="time the nablainv commands in FILE, one a line")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.workload and not args.commands:
        ap.error("give --workload, --commands or both")
    commands = read_commands(args.commands) if args.commands else []

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("command", "python3 bench/run.py --workload W --seed N --seconds S --trace T")
    runs = doc.setdefault("runs", [])

    with tempfile.TemporaryDirectory() as parent_tree:
        extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": str(ROOT)}
        if commands:
            time_commands(trees, commands, args.pairs, doc.setdefault("commands", {}))
            out.write_text(json.dumps(doc, indent=1) + "\n")
        for workload in args.workload:
            for seed in args.seeds:
                done = [r["pair"] for r in runs
                        if (r["workload"], r["seed"], r["trace"]) == (workload, seed, args.trace)]
                start = max(done, default=-1) + 1
                for pair in range(start, start + args.pairs):
                    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                    for side in order:
                        code, result = run_bench(trees[side], workload, seed,
                                                 args.seconds, args.trace)
                        runs.append({"side": side, "workload": workload, "seed": seed,
                                     "trace": args.trace, "pair": pair, "first": order[0],
                                     "returncode": code, "result": result})
                        p50 = (result or {}).get("metrics", {}).get("latency_p50_ms", {})
                        print(f"{workload} seed {seed} pair {pair} {side}: exit {code}, "
                              f"p50 {p50.get('value', float('nan')):.4g} ms", flush=True)
                    doc["summary"] = summarise(runs, better, bounds)
                    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
