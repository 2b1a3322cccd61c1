#!/usr/bin/env python3
"""Benchmark runs of this checkout, alone or paired with another one.

Usage::

    python scripts/bench.py --label L [--against DIR] [--runs 10] [--seed0 0]

Run from any directory; this checkout, the one the script sits in, is the
``change`` tree, and ``--against DIR`` adds ``DIR``, another full checkout
(say, the parent commit), as the ``base`` tree. In run i, for each workload
of ``BENCHMARK.json`` (a claim has to hold on all of them), each tree runs
its own ``perfbench/run.py --trace 0`` on its own ``src/`` with seed
``seed0 + i`` and the ``run_seconds`` of ``BENCHMARK.json``; with a base,
run i is pair i, and the tree that goes first swaps in every other pair.

A run that is not correct, has failed checks or gave no result is flagged.
For every workload and end-to-end metric the script prints each tree's
median and quartiles. With a base it also prints the pairs each tree won by
the metric's ``better`` direction (ties, and pairs with a run that gave no
result, count for neither; the "won" column reads change:base/pairs run)
and one verdict:

- ``gain``: at least ten pairs ran, the change won at least nine tenths of
  them, its median is better than the base's by more than the base's
  interquartile range, and none of its runs of the workload is flagged;
- ``WORSE beyond bound``: its median is worse than the base's by more than
  the metric's bound;
- ``unresolved``: the base's interquartile range is wider than the bound,
  and not every run of the change reads better than every run of the base;
- ``no claim``: none of these.

Every checkout should be clean, hold no bytecode under ``src/`` and sit at
a path as long as the other's: workers write no bytecode, and one that
finds it skips compiling, which lowers ``setup_s`` and moves
``peak_rss_mb``; and ``peak_rss_mb`` moves with the length of the path (by
0.18 MB between two paths of different lengths). The script warns of either.

The session writes ``BENCH_<label>.json`` in this checkout: each tree's
dirty flag, whether it held bytecode, the length of its absolute path, its
git SHA, Python, numpy and BLAS versions and core count (from the runs'
``environment`` line), every run's metrics in run order and the summary.
The file is replaced after each run i, never written in part, so a stopped
session keeps what it finished. Each run starts in a session of its own;
SIGTERM or SIGINT kills the process group of the run in progress, and the
script exits with 128 plus the signal's number.
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


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


MIN_PAIRS_FOR_GAIN = 10


def flagged(run: dict) -> bool:
    return not run["correct"] or run["failed"] != 0


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: its pairs (runs i) run, its flagged runs and, per
    end-to-end metric, each tree's quartiles; when a base ran, also the
    pairs each tree won, ``gain``, ``beyond_bound`` and ``unresolved`` (the
    rules above)."""
    sides = ("base", "change") if any(run["tree"] == "base" for run in runs) else ("change",)
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
            values = {side: [run["metrics"][name] for run in mine
                             if run["tree"] == side and name in run["metrics"]]
                      for side in sides}
            if not (both if "base" in sides else values["change"]):
                continue
            m = metrics[name] = {side: quartiles(values[side]) for side in sides}
            m["pairs"] = len(pairs)
            if "base" not in sides:
                continue
            base, change = m["base"], m["change"]
            change_won = sum(sign * (c - b) > 0 for b, c in both)
            gap = sign * (change["median"] - base["median"])    # > 0: the change is better
            spread = base["q3"] - base["q1"]
            separated = min(sign * v for v in values["change"]) > \
                max(sign * v for v in values["base"])
            m.update(change_won=change_won, base_won=sum(sign * (b - c) > 0 for b, c in both),
                     gain=len(pairs) >= MIN_PAIRS_FOR_GAIN and change_won >= 0.9 * len(pairs)
                     and gap > spread and change_clean,
                     beyond_bound=-gap > spec["bound"] * abs(base["median"]),
                     unresolved=spread > spec["bound"] * abs(base["median"]) and not separated)
        summary[workload] = {
            "pairs": len(pairs), "metrics": metrics,
            "flagged": [{key: run[key] for key in ("pair", "tree", "seed", "correct", "failed")}
                        for run in mine if flagged(run)]}
    return summary


def format_summary(summary: dict) -> list[str]:
    """The table of :func:`summarize`'s summary: a column per tree and, with
    a base, the pairs won and the verdict; without one, the runs."""
    paired = any("gain" in m for entry in summary.values() for m in entry["metrics"].values())
    sides = ("base", "change") if paired else ("change",)
    lines = [f"{'workload':<15} {'metric':<12} "
             + " ".join(f"{side + ' median [q1, q3]':>30}" for side in sides)
             + (f" {'won c:b/n':>9}  verdict" if paired else f" {'runs':>5}")]
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            line = f"{workload:<15} {name:<12} " + " ".join(
                f"{m[side]['median']:.5g} [{m[side]['q1']:.5g}, {m[side]['q3']:.5g}]".rjust(30)
                for side in sides)
            if not paired:
                lines.append(f"{line} {m['pairs']:>5}")
                continue
            verdict = ("gain" if m["gain"] else "WORSE beyond bound" if m["beyond_bound"]
                       else "unresolved" if m["unresolved"] else "no claim")
            lines.append(f"{line} {m['change_won']:>3}:{m['base_won']}/{m['pairs']:<3}  {verdict}")
        for run in entry["flagged"]:
            lines.append(f"{workload:<15} FLAGGED pair {run['pair']} {run['tree']} seed "
                         f"{run['seed']}: correct {run['correct']}, failed {run['failed']}")
    return lines


def session(args, spec: dict, runner: Runner) -> int:
    """Runs 0 to ``args.runs - 1`` of this checkout, alternating with the
    base's when ``args.against`` names one; ``BENCH_<label>.json`` is
    replaced after each."""
    trees = {"change": ROOT}
    if args.against is not None:
        trees["base"] = Path(args.against).resolve()
        if not (trees["base"] / "perfbench" / "run.py").is_file():
            print(f"bench.py: no perfbench/run.py under --against {args.against}",
                  file=sys.stderr)
            return 2
    record = {"label": args.label, "seconds": spec["run_seconds"], "seed0": args.seed0,
              "trees": {side: tree_info(path) for side, path in trees.items()},
              "runs": [], "summary": {}}
    for line in tree_warnings(record["trees"]):
        print(line, file=sys.stderr)
    for i in range(args.runs):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for workload in [w["name"] for w in spec["workloads"]]:
            for side in order:
                env, run = runner.run_once(trees[side], workload, args.seed0 + i,
                                           record["seconds"])
                if runner.signal is not None:
                    print(f"bench.py: stopped by signal {runner.signal}", file=sys.stderr)
                    return 128 + runner.signal
                info = record["trees"][side]
                if env and "environment" not in info:
                    info["environment"] = {k: env.get(k) for k in ENV_KEYS}
                run = {"pair": i, "tree": side, "workload": workload, "seed": args.seed0 + i,
                       **run}
                record["runs"].append(run)
                print(f"pair {i} {workload} {side}: " + json.dumps(run["metrics"]), flush=True)
        record["summary"] = summarize(record["runs"], spec["end_to_end"])
        out = write_record(record)
    print("\n".join(format_summary(record["summary"])))
    print(f"wrote {out.name}")
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--against", help="the base checkout; without it, this one runs alone")
    parser.add_argument("--runs", type=int, default=10, help="pairs, or runs without --against")
    parser.add_argument("--seed0", type=int, default=0, help="run i runs seed seed0 + i")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seed0 < 0:
        parser.error("--runs must be >= 1 and --seed0 >= 0")
    runner = Runner()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, runner.stop)
    return session(args, spec, runner)


if __name__ == "__main__":
    sys.exit(main())
