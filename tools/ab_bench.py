#!/usr/bin/env python3
"""Alternating A/B of two revisions on the freqcache benchmark.

    python3 tools/ab_bench.py --parent REV --change REV --pr N --work DIR

Exports each revision with ``git archive`` into its own directory under
``DIR``. In each tree it first runs every workload of ``BENCHMARK.json``
alone with ``--seed 1 --trace 1``, the form of a single traced run of the
benchmark. Then it runs ``perfbench/run.py --workload all --seed S`` there,
one run at a time, for ``PAIRS`` pairs on seeds 1 to 10: the parent goes
first on odd seeds and the change first on even ones. ``TRACED_PAIRS``
pairs run with ``--trace 1`` on seeds 1 to 3, alternating the same way,
each between the untraced ones: traced pair k right after untraced pair
3k, so machine drift over the run reaches both the untraced and the
traced pairs rather than reading as a layer change. One more pair, the
parent first, runs on the held-out seed 1000 at the end. Writes
``BENCH_<N>.json`` at the top of the repository with every result line,
the decisions SHA-256 of each workload and run, the machine facts, per
workload and end-to-end metric of ``BENCHMARK.json`` the medians, the
parent's quartiles, the pairs each side won and two verdicts
(``gain_rule_met``: the change won at least 9 of 10 pairs and its median
beats the parent's by more than the parent's IQR; ``within_bound``: its
median is worse than the parent's by no more than the metric's bound, a
share of the parent's median), and under ``per_layer``,
per workload and per-layer metric, the medians of the traced runs and
the pairs each side won, and under ``solo_traced`` each workload's solo
traced result line per side. A result line, solo or paired, traced or not,
that is not strict JSON or holds a metric that is not a finite number
stops the tool with status 2, naming the workload and metric where it
can.

Each side is recorded by its commit and tree hashes. Work that is not
committed can be measured as the revision that ``git stash create`` prints
after ``git add``; its tree hash is the tree of the commit that later
holds the same files. An existing ``DIR``, running outside a git
repository or a revision that is not a commit of it (see revisions.py)
stops the tool with status 2 before anything is written. Uses the
standard library only.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from revisions import export, fail, git, resolve

TOOL = "ab_bench"
SIDES = ("parent", "change")
# Ten pairs, the fewest whose win count can back a claimed gain.
PAIRS = 10
# perfbench's README keeps seeds 1-10 for tuning; any other is held out.
HELD_OUT_SEED = 1000
# The least share of the pairs run that a change must win to claim a gain.
GAIN_SHARE = 0.9
# Traced pairs, on seeds 1 to TRACED_PAIRS, for the per-layer metrics;
# traced pair k runs right after untraced pair k * PAIRS // TRACED_PAIRS.
TRACED_PAIRS = 3
COMMAND = "python3 perfbench/run.py --workload all --seed N"
# Each workload alone, traced, as a single run of the benchmark is made.
SOLO_SEED = 1
SOLO_COMMAND = f"python3 perfbench/run.py --workload W --seed {SOLO_SEED} --trace 1"


def run_perfbench(tree, workload, seed, trace):
    """The checked result line of one ``perfbench/run.py`` run in
    ``tree``."""
    where = f"perfbench {workload} in {tree} seed {seed} trace {trace}"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_bench: {where} exited with {proc.returncode}:"
                         f"\n{proc.stderr}")
    return checked_result(lines[-1], where)


def perfbench(tree, seed, trace=0):
    """The result line of one ``--workload all --trace TRACE`` run in
    ``tree`` and the decisions SHA-256 and machine facts it saved for each
    workload."""
    result = run_perfbench(tree, "all", seed, trace)
    names = sorted({key.split("/")[0] for key in result["metrics"]})
    saved = {name: json.loads((tree / ".perfbench_out" / "results" /
                               f"{name}-seed{seed}.json").read_text())
             for name in names}
    return result, {name: s["decisions_sha256"] for name, s in saved.items()}, \
        saved[names[0]]["machine"]


def checked_result(line, where):
    """perfbench's result ``line`` parsed, or status 2 naming ``where``
    unless it is strict JSON (no NaN or Infinity) whose every metric value
    is a finite number."""
    constants = []

    def constant(name):
        constants.append(name)
        return float(name)

    try:
        result = json.loads(line, parse_constant=constant)
        values = {key: entry["value"] for key, entry in result["metrics"].items()}
    except (ValueError, TypeError, KeyError, AttributeError):
        fail(TOOL, f"{where}: the last stdout line is not a result: {line[:80]!r}")
    for key, value in values.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail(TOOL, f"{where}: {key.replace('/', ' ')} is "
                       f"{json.dumps(value)}, not a finite number")
    if constants:
        fail(TOOL, f"{where}: the result line holds {constants[0]}, which is "
                   "not strict JSON")
    return result


def schedule():
    """Every pair of one A/B in the order it runs, as ``(seed,
    parent_first, trace)``: the untraced pairs on seeds 1 to ``PAIRS``
    with a traced pair after every ``PAIRS // TRACED_PAIRS``-th, then the
    held-out pair."""
    order = []
    for seed in range(1, PAIRS + 1):
        order.append((seed, seed % 2 == 1, 0))
        k, rest = divmod(seed, PAIRS // TRACED_PAIRS)
        if not rest and k <= TRACED_PAIRS:
            order.append((k, k % 2 == 1, 1))
    return order + [(HELD_OUT_SEED, True, 0)]


def measure(trees, workloads):
    """Run one A/B on the exported ``trees``: each of ``workloads`` alone,
    traced, on both sides, then the pairs of :func:`schedule`. Returns
    the solo result lines per side and workload, then the untraced
    seed 1 to ``PAIRS`` runs, the traced runs (each per side, in seed
    order) and the held-out pair."""
    solo = {side: {w["name"]: run_perfbench(trees[side], w["name"], SOLO_SEED, 1)
                   for w in workloads}
            for side in SIDES}
    print("ab_bench: solo traced runs done", file=sys.stderr, flush=True)
    runs, traced = ({side: [] for side in SIDES} for _ in range(2))
    held = {}
    for seed, parent_first, trace in schedule():
        for side in (SIDES if parent_first else SIDES[::-1]):
            result, sha256, machine = perfbench(trees[side], seed, trace)
            done = {"seed": seed, "result": result, "sha256": sha256,
                    "machine": machine}
            if seed == HELD_OUT_SEED:
                held[side] = done
            else:
                (traced if trace else runs)[side].append(done)
            print(f"ab_bench: seed {seed} trace {trace} {side} done",
                  file=sys.stderr, flush=True)
    return solo, runs, traced, held


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, q3


def versus(runs, key, better):
    """Each side's values of metric ``key``, then their medians, the pairs
    with both values and the pairs each side won. A run that left the
    metric empty counts in no median and no pair."""
    values = {side: [r["result"]["metrics"][key]["value"] for r in runs[side]]
              for side in SIDES}
    sign = -1.0 if better == "lower" else 1.0
    gaps = [sign * (c - p) for p, c in zip(values["parent"], values["change"])
            if p is not None and c is not None]
    present = {side: [v for v in values[side] if v is not None] for side in SIDES}
    medians = {f"{side}_median": round(statistics.median(present[side]), 6)
               if present[side] else None for side in SIDES}
    return present, medians | {"pairs": len(gaps),
                               "change_wins": sum(g > 0 for g in gaps),
                               "change_losses": sum(g < 0 for g in gaps)}


def verdicts(stats, better, bound):
    """Whether ``stats`` of one metric (from :func:`versus`, with the
    parent's IQR) meet the gain rule, and whether the change stays within
    ``bound``, a share of the parent's median; None for a side with no
    median.

    The gain rule: the change won at least ``GAIN_SHARE`` of the pairs run
    (a tie counts for neither side) and its median beats the parent's by
    more than the parent's IQR.
    """
    parent, change = stats["parent_median"], stats["change_median"]
    if parent is None or change is None:
        return {"gain_rule_met": None, "within_bound": None}
    gain = (change - parent) * (-1.0 if better == "lower" else 1.0)
    return {
        "gain_rule_met": (stats["pairs"] > 0
                          and stats["change_wins"] >= GAIN_SHARE * stats["pairs"]
                          and gain > stats["parent_iqr"]),
        "within_bound": -gain <= bound * abs(parent),
    }


def summarise(runs, metrics):
    """Per workload: medians, the parent's quartiles and IQR, the pairs
    each side won and the two :func:`verdicts` for every end-to-end metric,
    then SHA-256 agreement and failed frames."""
    summary = {}
    for name in runs["parent"][0]["sha256"]:
        entry = {}
        for metric in metrics:
            values, stats = versus(
                runs, f"{name}/{metric['name']}", metric["better"])
            q1, q3 = quartiles(values["parent"])
            stats |= {
                "parent_quartiles": [round(q1, 6), round(q3, 6)],
                "parent_iqr": round(q3 - q1, 6),
            }
            entry[metric["name"]] = stats | verdicts(
                stats, metric["better"], metric["bound"])
        entry["decisions_sha256_equal_seeds"] = sum(
            p["sha256"][name] == c["sha256"][name]
            for p, c in zip(runs["parent"], runs["change"]))
        entry["failed_frames"] = {side: sum(r["result"]["failed"] for r in runs[side])
                                  for side in SIDES}
        summary[name] = entry
    return summary


def summarise_layers(runs, metrics):
    """Per workload and per-layer metric: the medians of each side's
    traced runs and the pairs each side won."""
    return {name: {metric["name"]: versus(runs, f"{name}/{metric['name']}",
                                          metric["better"])[1]
                   for metric in metrics}
            for name in runs["parent"][0]["sha256"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--work", required=True, type=Path,
                        help="new directory for the exported trees")
    args = parser.parse_args(argv)

    if args.work.exists():
        fail(TOOL, f"--work {args.work} already exists")
    top, revs = resolve(TOOL, (args.parent, args.change))
    commits = dict(zip(SIDES, revs))
    trees = {side: args.work / side for side in SIDES}
    for side in SIDES:
        export(top, commits[side], trees[side])
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    solo, runs, traced, held = measure(trees, declared["workloads"])

    machine = runs["change"][0]["machine"]
    bench = {
        "command": COMMAND,
        "method": "10 alternating pairs, seeds 1-10, the parent first on odd "
                  "seeds, one run at a time; each side ran "
                  "from its own git archive of its revision (tools/ab_bench.py). "
                  "Times are perfbench's probe-scaled figures. Quartiles use "
                  "statistics.quantiles(method='exclusive').",
        "machine": {key: machine[key] for key in
                    ("nproc", "python", "numpy", "scipy", "platform")}
                   | {"cpu": f"{platform.machine()}, {os.cpu_count()} cores; "
                             "perfbench pins each run to one"},
    }
    for side in SIDES:
        bench[side] = {
            "commit": commits[side],
            "tree": git("rev-parse", f"{commits[side]}^{{tree}}").decode().strip(),
            "runs": [{"seed": r["seed"], "result": r["result"]} for r in runs[side]],
            "decisions_sha256": {name: [r["sha256"][name] for r in runs[side]]
                                 for name in runs[side][0]["sha256"]},
        }
    bench["summary"] = summarise(runs, declared["end_to_end"])
    bench["held_out"] = {
        "seed": HELD_OUT_SEED,
        "method": "one pair on a seed not used while the change was written, "
                  "the parent first",
        **{side: held[side]["result"] for side in SIDES},
        "decisions_sha256_equal": held["parent"]["sha256"] == held["change"]["sha256"],
    }
    bench["per_layer"] = {
        "method": f"{TRACED_PAIRS} alternating pairs with --trace 1, seeds "
                  f"1-{TRACED_PAIRS}, the parent first on odd seeds; traced "
                  "pair k ran right after untraced pair "
                  f"{PAIRS // TRACED_PAIRS}k, so drift over the run reaches "
                  "both. Span times are unscaled wall-clock.",
        **{side: [{"seed": r["seed"], "result": r["result"]}
                  for r in traced[side]] for side in SIDES},
        "summary": summarise_layers(traced, declared["per_layer"]),
    }
    bench["solo_traced"] = {
        "command": SOLO_COMMAND,
        "method": "each workload of BENCHMARK.json alone, traced, on both "
                  "sides before the pairs; every last stdout line passed the "
                  "strict result check",
        **solo,
    }
    out = top / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"ab_bench: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
