#!/usr/bin/env python3
"""Benchmark runs of this checkout, alone or paired with another one.

Usage::

    python scripts/bench.py record --label L [--runs 5] [--seed0 0]
    python scripts/bench.py pair --against DIR --label L [--pairs 10] [--seed0 0]

Run from any directory; this checkout is the one the script sits in.

``record`` runs every workload of ``BENCHMARK.json`` untraced in this
checkout, with seeds ``seed0`` to ``seed0 + runs - 1`` and its
``run_seconds``, and gives per workload and end-to-end metric the median and
quartiles of the runs, and the runs that are flagged (below).

``pair`` compares this checkout (the change) with ``DIR``, another full
checkout (the base, for example the parent commit). For pair i and each workload, both trees run their own
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

Both checkouts should be clean, hold no bytecode under ``src/`` and sit at
paths of equal length: workers write no bytecode, and one that finds it
skips compiling, which lowers ``setup_s`` and moves ``peak_rss_mb``; and
``peak_rss_mb`` moves with the length of the checkout's path (by 0.18 MB
between two paths of different lengths). The script warns of either.

Both commands write ``BENCH_<label>.json`` in this checkout: each tree's
dirty flag, whether it held bytecode, the length of its absolute path, its
git SHA, Python, numpy and BLAS versions and core count (from the runs'
``environment`` line), every run's metrics in run order and the summary.
The file is replaced after each pair or seed, never written in part, so a
stopped session keeps what it finished. Each run starts in a session of its
own; SIGTERM or SIGINT kills the process group of the run in progress, and
the script exits with 128 plus the signal's number.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("git_sha", "python", "numpy", "blas", "blas_version", "nproc", "cpus_allowed")
RUN_TIMEOUT_S = 900


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the run and every process it started: they share its session's group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(environment, result) from the standard output of ``perfbench/run.py``:
    its ``environment {...}`` line and its last line."""
    lines = stdout.strip().splitlines()
    env = next(json.loads(line[len("environment "):]) for line in lines
               if line.startswith("environment "))
    return env, json.loads(lines[-1])


class Runner:
    """Benchmark runs, one at a time, each in a session of its own, so that
    :meth:`stop` (the SIGTERM and SIGINT handler) kills the run in progress
    with every process it started; ``signal`` then holds the signal."""

    def __init__(self):
        self.proc: subprocess.Popen | None = None
        self.signal: int | None = None

    def stop(self, signum: int, frame=None) -> None:
        self.signal = signum
        if self.proc is not None:
            _kill_group(self.proc)

    def run_once(self, tree: Path, workload: str, seed: int,
                 seconds: float) -> tuple[dict, dict]:
        """(environment, run record) of one untraced benchmark run in
        ``tree``; a run that exits non-zero, or gives no result line, has no
        metrics."""
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        self.proc = proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                                            stderr=subprocess.PIPE, text=True,
                                            start_new_session=True)
        try:
            if self.signal is not None:         # it came before the run was known
                _kill_group(proc)
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
            env, result = parse_output(stdout) if proc.returncode == 0 else ({}, None)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            proc.communicate()
            env, result = {}, None
        except (StopIteration, json.JSONDecodeError):
            env, result = {}, None
        finally:
            self.proc = None
        if result is None:
            return env, {"correct": False, "attempted": None, "failed": None, "metrics": {}}
        return env, {"correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"],
                     "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def tree_info(tree: Path) -> dict:
    """Whether ``tree`` is dirty (None outside git), holds bytecode under
    ``src/``, and the length of its absolute path."""
    status = subprocess.run(["git", "-C", str(tree), "status", "--porcelain"],
                            capture_output=True, text=True)
    return {"dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
            "bytecode_cache": any((tree / "src").rglob("*.pyc")),
            "path_length": len(str(tree.resolve()))}


def tree_warnings(trees: dict) -> list[str]:
    """A warning per tree (of ``tree_info``) with bytecode, and one if the
    trees' paths differ in length."""
    lines = [f"bench.py: warning: the {side} tree has bytecode under src/; its workers "
             "skip compiling, which lowers setup_s and moves peak_rss_mb"
             for side, info in trees.items() if info["bytecode_cache"]]
    lengths = {side: info["path_length"] for side, info in trees.items()}
    if len(set(lengths.values())) > 1:
        lines.append("bench.py: warning: the trees' paths differ in length ("
                     + ", ".join(f"{side} {n}" for side, n in lengths.items())
                     + "), which moves peak_rss_mb")
    return lines


def write_record(record: dict) -> Path:
    """Replace ``BENCH_<label>.json`` with ``record`` whole."""
    out = ROOT / f"BENCH_{record['label']}.json"
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, out)
    return out


def stopped(signum: int) -> int:
    """The exit status of a session that signal ``signum`` stopped."""
    print(f"bench.py: stopped by signal {signum}", file=sys.stderr)
    return 128 + signum


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


def summarize_runs(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload of a ``record`` session: its runs, each end-to-end
    metric's quartiles over the runs that gave it, and its flagged runs."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        metrics = {}
        for spec in end_to_end:
            values = [run["metrics"][spec["name"]] for run in mine
                      if spec["name"] in run["metrics"]]
            if values:
                metrics[spec["name"]] = {**quartiles(values), "runs": len(values)}
        summary[workload] = {
            "runs": len(mine), "metrics": metrics,
            "flagged": [{key: run[key] for key in ("seed", "correct", "failed")}
                        for run in mine if flagged(run)]}
    return summary


def format_runs(summary: dict) -> list[str]:
    lines = [f"{'workload':<15} {'metric':<12} {'median [q1, q3]':>30} {'runs':>5}"]
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            quarts = f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"
            lines.append(f"{workload:<15} {name:<12} {quarts:>30} {m['runs']:>5}")
        for run in entry["flagged"]:
            lines.append(f"{workload:<15} FLAGGED seed {run['seed']}: correct {run['correct']}, "
                         f"failed {run['failed']}")
    return lines


def collect(runner: Runner, record: dict, info: dict, path: Path, workload: str, seed: int,
            **tags) -> dict | None:
    """One run of the tree at ``path`` (whose ``tree_info`` is ``info``),
    appended to ``record``'s runs with ``tags``; None if a signal stopped
    the session."""
    env, run = runner.run_once(path, workload, seed, record["seconds"])
    if runner.signal is not None:
        return None
    if env and "environment" not in info:
        info["environment"] = {k: env.get(k) for k in ENV_KEYS}
    run = {**tags, "workload": workload, "seed": seed, **run}
    record["runs"].append(run)
    return run


def record_runs(args, spec: dict, runner: Runner) -> int:
    record = {"label": args.label, "seconds": spec["run_seconds"], "seed0": args.seed0,
              "tree": tree_info(ROOT), "runs": [], "summary": {}}
    for line in tree_warnings({"this": record["tree"]}):
        print(line, file=sys.stderr)
    for seed in range(args.seed0, args.seed0 + args.runs):
        for workload in [w["name"] for w in spec["workloads"]]:
            run = collect(runner, record, record["tree"], ROOT, workload, seed)
            if run is None:
                return stopped(runner.signal)
            print(f"seed {seed} {workload}: " + json.dumps(run["metrics"]), flush=True)
        record["summary"] = summarize_runs(record["runs"], spec["end_to_end"])
        out = write_record(record)
    print("\n".join(format_runs(record["summary"])))
    print(f"wrote {out.name}")
    return 0


def pair(args, spec: dict, runner: Runner) -> int:
    against = Path(args.against).resolve()
    if not (against / "perfbench" / "run.py").is_file():
        print(f"bench.py: no perfbench/run.py under --against {args.against}", file=sys.stderr)
        return 2
    trees = {"change": ROOT, "base": against}
    record = {"label": args.label, "seconds": spec["run_seconds"], "seed0": args.seed0,
              "trees": {side: tree_info(path) for side, path in trees.items()},
              "runs": [], "summary": {}}
    for line in tree_warnings(record["trees"]):
        print(line, file=sys.stderr)
    for i in range(args.pairs):
        order = ("change", "base") if i % 2 == 0 else ("base", "change")
        for workload in [w["name"] for w in spec["workloads"]]:
            for side in order:
                run = collect(runner, record, record["trees"][side], trees[side], workload,
                              args.seed0 + i, pair=i, tree=side)
                if run is None:
                    return stopped(runner.signal)
                print(f"pair {i} {workload} {side}: " + json.dumps(run["metrics"]), flush=True)
        record["summary"] = summarize(record["runs"], spec["end_to_end"])
        out = write_record(record)
    print("\n".join(format_summary(record["summary"])))
    print(f"wrote {out.name}")
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    r = commands.add_parser("record", help="runs of this checkout alone")
    r.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    r.add_argument("--runs", type=int, default=5, help="seeds per workload")
    r.add_argument("--seed0", type=int, default=0, help="run i runs seed seed0 + i")
    p = commands.add_parser("pair", help="alternate runs of this checkout and --against")
    p.add_argument("--against", required=True, help="the base checkout")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0, help="pair i runs seed seed0 + i")
    args = parser.parse_args(argv)
    if getattr(args, "runs", 1) < 1 or getattr(args, "pairs", 1) < 1 or args.seed0 < 0:
        parser.error("--runs and --pairs must be >= 1 and --seed0 >= 0")
    runner = Runner()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, runner.stop)
    return (record_runs if args.command == "record" else pair)(args, spec, runner)


if __name__ == "__main__":
    sys.exit(main())
