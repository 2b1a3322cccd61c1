#!/usr/bin/env python3
"""Paired benchmark runs of this checkout against another one.

Usage::

    python scripts/bench.py pair --against DIR --label L [--pairs 10] [--seed0 0]

Run from any directory; this checkout is the one the script sits in (the
change), ``DIR`` another full checkout (the base, for example the parent
commit). For pair i and each workload, both trees run their own
``perfbench/run.py --trace 0`` on their own ``src/``, with seed ``seed0 + i``
and the ``run_seconds`` of ``BENCHMARK.json``, one after the other; the tree
that goes first swaps in every other pair. Every workload of
``BENCHMARK.json`` runs in every pair, since a claim has to hold on all of
them.

A run that is not correct, has failed checks or gave no result is flagged.
For every workload and end-to-end metric the script prints both trees'
medians and quartiles, the pairs each tree won by the metric's ``better``
direction (ties, and pairs with a run that gave no result, count for
neither; the "won" column reads change:base/pairs run) and one verdict:

- ``gain``: at least ten pairs ran, the change won at least nine tenths of
  them, its median is better than the base's by more than the base's
  interquartile range, and none of its runs of the workload is flagged;
- ``WORSE beyond bound``: its median is worse than the base's by more than
  the metric's bound;
- ``unresolved``: the base's interquartile range is wider than the bound,
  and not every run of the change reads better than every run of the base;
- ``no claim``: none of these.

Both checkouts should be clean and hold no bytecode under ``src/``: workers
write none, and one that finds it skips compiling, which lowers ``setup_s``
and moves ``peak_rss_mb``. ``BENCH_<label>.json`` in this checkout receives
both trees' dirty flag and whether they held bytecode, their git SHA,
Python, numpy and BLAS versions and core count (from the runs'
``environment`` line), every run's metrics in run order and
the summary; it is rewritten after each pair, so an interrupted session
keeps the pairs done.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("git_sha", "python", "numpy", "blas", "blas_version", "nproc", "cpus_allowed")
RUN_TIMEOUT_S = 900


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(environment, result) from the standard output of ``perfbench/run.py``:
    its ``environment {...}`` line and its last line."""
    lines = stdout.strip().splitlines()
    env = next(json.loads(line[len("environment "):]) for line in lines
               if line.startswith("environment "))
    return env, json.loads(lines[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(environment, run record) of one untraced benchmark run in ``tree``; a
    run that exits non-zero, or gives no result line, has no metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        env, result = parse_output(proc.stdout) if proc.returncode == 0 else ({}, None)
    except (subprocess.TimeoutExpired, StopIteration, json.JSONDecodeError):
        env, result = {}, None
    if result is None:
        return env, {"correct": False, "attempted": None, "failed": None, "metrics": {}}
    return env, {"correct": result["correct"], "attempted": result["attempted"],
                 "failed": result["failed"],
                 "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def tree_info(tree: Path) -> dict:
    status = subprocess.run(["git", "-C", str(tree), "status", "--porcelain"],
                            capture_output=True, text=True, check=True).stdout.strip()
    return {"dirty": bool(status), "bytecode_cache": any((tree / "src").rglob("*.pyc"))}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


MIN_PAIRS_FOR_GAIN = 10


def flagged(run: dict) -> bool:
    return not run["correct"] or run["failed"] != 0


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: its pairs run, its flagged runs and, per end-to-end
    metric, both trees' quartiles, the pairs each won, ``gain``,
    ``beyond_bound`` and ``unresolved`` (the rules above)."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        pairs = {}
        for run in mine:
            pairs.setdefault(run["pair"], {})[run["tree"]] = run["metrics"]
        change_clean = not any(flagged(run) for run in mine if run["tree"] == "change")
        metrics = {}
        for spec in end_to_end:
            name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
            both = [(p["base"][name], p["change"][name]) for p in pairs.values()
                    if name in p.get("base", {}) and name in p.get("change", {})]
            if not both:
                continue
            values = {side: [run["metrics"][name] for run in mine
                             if run["tree"] == side and name in run["metrics"]]
                      for side in ("base", "change")}
            base, change = quartiles(values["base"]), quartiles(values["change"])
            change_won = sum(sign * (c - b) > 0 for b, c in both)
            base_won = sum(sign * (b - c) > 0 for b, c in both)
            gap = sign * (change["median"] - base["median"])    # > 0: the change is better
            spread = base["q3"] - base["q1"]
            separated = min(sign * v for v in values["change"]) > \
                max(sign * v for v in values["base"])
            metrics[name] = {"base": base, "change": change, "pairs": len(pairs),
                             "change_won": change_won, "base_won": base_won,
                             "gain": len(pairs) >= MIN_PAIRS_FOR_GAIN
                             and change_won >= 0.9 * len(pairs) and gap > spread
                             and change_clean,
                             "beyond_bound": -gap > spec["bound"] * abs(base["median"]),
                             "unresolved": spread > spec["bound"] * abs(base["median"])
                             and not separated}
        summary[workload] = {
            "pairs": len(pairs), "metrics": metrics,
            "flagged": [{key: run[key] for key in ("pair", "tree", "seed", "correct", "failed")}
                        for run in mine if flagged(run)]}
    return summary


def format_summary(summary: dict) -> list[str]:
    lines = [f"{'workload':<15} {'metric':<12} {'base median [q1, q3]':>30} "
             f"{'change median [q1, q3]':>30} {'won c:b/n':>9}  verdict"]
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            sides = [f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
                     for s in (m["base"], m["change"])]
            verdict = ("gain" if m["gain"] else "WORSE beyond bound" if m["beyond_bound"]
                       else "unresolved" if m["unresolved"] else "no claim")
            lines.append(f"{workload:<15} {name:<12} {sides[0]:>30} {sides[1]:>30} "
                         f"{m['change_won']:>3}:{m['base_won']}/{m['pairs']:<3}  {verdict}")
        for run in entry["flagged"]:
            lines.append(f"{workload:<15} FLAGGED pair {run['pair']} {run['tree']} seed "
                         f"{run['seed']}: correct {run['correct']}, failed {run['failed']}")
    return lines


def pair(args, spec: dict) -> int:
    against = Path(args.against).resolve()
    if not (against / "perfbench" / "run.py").is_file():
        print(f"bench.py: no perfbench/run.py under --against {args.against}", file=sys.stderr)
        return 2
    trees = {"change": ROOT, "base": against}
    record = {"label": args.label, "seconds": spec["run_seconds"], "seed0": args.seed0,
              "trees": {side: tree_info(path) for side, path in trees.items()},
              "runs": [], "summary": {}}
    for side, info in record["trees"].items():
        if info["bytecode_cache"]:
            print(f"bench.py: warning: the {side} tree has bytecode under src/; its workers "
                  "skip compiling, which lowers setup_s and moves peak_rss_mb", file=sys.stderr)
    out = ROOT / f"BENCH_{args.label}.json"
    for i in range(args.pairs):
        order = ("change", "base") if i % 2 == 0 else ("base", "change")
        for workload in [w["name"] for w in spec["workloads"]]:
            for side in order:
                env, run = run_once(trees[side], workload, args.seed0 + i, spec["run_seconds"])
                if env and "environment" not in record["trees"][side]:
                    record["trees"][side]["environment"] = {k: env.get(k) for k in ENV_KEYS}
                record["runs"].append({"pair": i, "workload": workload, "seed": args.seed0 + i,
                                       "tree": side, **run})
                print(f"pair {i} {workload} {side}: " + json.dumps(run["metrics"]), flush=True)
        record["summary"] = summarize(record["runs"], spec["end_to_end"])
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(format_summary(record["summary"])))
    print(f"wrote {out.name}")
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("pair", help="alternate runs of this checkout and --against")
    p.add_argument("--against", required=True, help="the base checkout")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0, help="pair i runs seed seed0 + i")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed0 < 0:
        parser.error("--pairs must be >= 1 and --seed0 >= 0")
    return pair(args, spec)


if __name__ == "__main__":
    sys.exit(main())
