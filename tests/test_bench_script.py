"""``scripts/bench.py``'s parsing and summaries, on recorded output, and its
handling of a stopped session, on a fake checkout: no benchmark runs."""
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# the stdout of one perfbench/run.py run, then 10 pairs of gradcheck-tiny
# (work_per_s 100 + 2i against 140 + 2i, but 90 in pair 9) and 3 of
# train-small (work_per_s 30% lower; pair 1's base run gave no result, pair
# 2's change run failed 2 checks)
FIXTURE = json.loads((ROOT / "tests" / "data" / "bench_runs.json").read_text(encoding="utf-8"))
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def test_a_run_output_gives_its_environment_and_result_line():
    env, result = bench.parse_output(FIXTURE["run_stdout"])
    assert (env["python"], env["numpy"], env["blas"], env["nproc"]) == \
        ("3.11.7", "2.4.6", "scipy-openblas", 2)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 63, 0)
    assert result["metrics"]["work_per_s"] == {"value": 7241.27497285941, "unit": "1/s"}


def test_the_summary_applies_each_metric_direction_and_the_gain_rule():
    summary = bench.summarize(FIXTURE["runs"], END_TO_END)
    assert list(summary) == ["gradcheck-tiny", "train-small"]
    tiny = summary["gradcheck-tiny"]
    assert (tiny["pairs"], tiny["flagged"]) == (10, [])
    work = tiny["metrics"]["work_per_s"]
    assert work["base"] == {"q1": 104.5, "median": 109.0, "q3": 113.5}
    assert work["change"]["median"] == 147.0
    # 9 of 10 pairs won, and a gap of 38 against the base's spread of 9
    assert (work["pairs"], work["change_won"], work["base_won"]) == (10, 9, 1)
    assert work["gain"] and not work["beyond_bound"]
    setup = tiny["metrics"]["setup_s"]                      # ties count for neither
    assert (setup["change_won"], setup["base_won"], setup["gain"]) == (0, 0, False)
    rss = tiny["metrics"]["peak_rss_mb"]                    # lower is better
    assert (rss["change_won"], rss["base_won"], rss["gain"]) == (0, 1, False)

    small = summary["train-small"]
    work = small["metrics"]["work_per_s"]
    assert (small["pairs"], work["pairs"], work["change_won"], work["base_won"]) == (3, 3, 0, 2)
    assert work["base"] == {"q1": 1005.0, "median": 1010.0, "q3": 1015.0}
    assert work["beyond_bound"] and not work["gain"]      # 30% worse, past the bound of 25%
    assert not work["unresolved"]                           # the base's spread is 1% of its median
    assert small["flagged"] == [
        {"pair": 1, "tree": "base", "seed": 41, "correct": False, "failed": None},
        {"pair": 2, "tree": "change", "seed": 42, "correct": False, "failed": 2}]
    lines = bench.format_summary(summary)
    verdicts = ["no claim", "gain", "no claim", "no claim", "WORSE beyond bound", "no claim"]
    assert all(line.endswith("  " + v) for line, v in zip(lines[1:7], verdicts, strict=True))
    assert lines[2].split()[-2] == "9:1/10"
    assert lines[5].split()[-4] == "0:2/3"                  # pair 1 ran, but gave the base no result
    assert lines[-1].endswith("FLAGGED pair 2 change seed 42: correct False, failed 2")


@pytest.mark.parametrize("lost, gain", [(1, True), (2, False)])
def test_a_gain_needs_nine_tenths_of_the_pairs(lost, gain):
    runs = [dict(run, metrics=dict(run["metrics"])) for run in FIXTURE["runs"]
            if run["workload"] == "gradcheck-tiny"]
    for run in runs:
        if run["tree"] == "change" and run["pair"] >= 10 - lost:
            run["metrics"]["work_per_s"] = 90.0
    work = bench.summarize(runs, END_TO_END)["gradcheck-tiny"]["metrics"]["work_per_s"]
    assert (work["change_won"], work["gain"]) == (10 - lost, gain)


def test_a_gain_needs_a_median_gap_wider_than_the_base_spread():
    runs = [dict(run, metrics=dict(run["metrics"])) for run in FIXTURE["runs"]
            if run["workload"] == "gradcheck-tiny"]
    for run in runs:                                        # every pair won by 1 only
        if run["tree"] == "change":
            run["metrics"]["work_per_s"] = 101.0 + 2 * run["pair"]
    work = bench.summarize(runs, END_TO_END)["gradcheck-tiny"]["metrics"]["work_per_s"]
    assert (work["change_won"], work["gain"]) == (10, False)


def tiny_runs(change_work=lambda pair: 140.0 + 2 * pair):
    """The fixture's gradcheck-tiny runs, the change's work_per_s set per pair."""
    runs = [dict(run, metrics=dict(run["metrics"])) for run in FIXTURE["runs"]
            if run["workload"] == "gradcheck-tiny"]
    for run in runs:
        if run["tree"] == "change":
            run["metrics"]["work_per_s"] = change_work(run["pair"])
    return runs


def lose(run):
    run.update(correct=False, attempted=None, failed=None, metrics={})


def fail(run):
    run.update(correct=False, failed=1)


# (pairs kept, the runs spoiled by what) and whether the change still claims
# its gain: a pair with a lost run counts as run but not won, and a flagged
# run of the change rules its gain out
@pytest.mark.parametrize("keep, spoil, gain", [
    (10, {}, True),
    (9, {}, False),                                         # 9 of 9 won, but fewer than 10 run
    (10, {(0, "base"): lose}, True),                        # 9 of 10 won
    (10, {(0, "base"): lose, (1, "base"): lose}, False),    # 8 of 10 won
    (10, {(0, "change"): lose}, False),                     # 9 of 10 won, a change run lost
    (10, {(3, "change"): fail}, False),                     # 10 of 10 won, a change run failed
], ids=["ten-won", "nine-run", "base-lost", "two-base-lost", "change-lost", "change-failed"])
def test_a_gain_needs_ten_pairs_run_and_no_flagged_change_run(keep, spoil, gain):
    runs = [run for run in tiny_runs() if run["pair"] < keep]
    for run in runs:
        spoil.get((run["pair"], run["tree"]), lambda run: None)(run)
    summary = bench.summarize(runs, END_TO_END)["gradcheck-tiny"]
    assert (summary["metrics"]["work_per_s"]["pairs"], summary["metrics"]["work_per_s"]["gain"]) \
        == (keep, gain)
    assert len(summary["flagged"]) == len(spoil)


@pytest.mark.parametrize("change_setup, verdict", [(0.2, "unresolved"), (0.05, "gain")])
def test_a_base_spread_wider_than_the_bound_leaves_the_metric_unresolved(change_setup, verdict):
    runs = tiny_runs()
    for run in runs:                    # base setup_s 0.10-0.28 s: spread 0.09 on a 0.19 median
        run["metrics"]["setup_s"] = 0.1 + 0.02 * run["pair"] if run["tree"] == "base" \
            else change_setup
    summary = bench.summarize(runs, END_TO_END)
    setup = summary["gradcheck-tiny"]["metrics"]["setup_s"]
    assert (setup["unresolved"], setup["beyond_bound"]) == (verdict == "unresolved", False)
    assert bench.format_summary(summary)[1].endswith("  " + verdict)


def test_a_record_summary_gives_each_workloads_quartiles_and_flagged_runs():
    # a session without --against: the change's runs alone, and no verdicts
    runs = [run for run in FIXTURE["runs"] if run["tree"] == "change"]
    summary = bench.summarize(runs, END_TO_END)
    assert list(summary) == ["gradcheck-tiny", "train-small"]
    tiny = summary["gradcheck-tiny"]
    assert (tiny["pairs"], tiny["flagged"]) == (10, [])
    # 140 + 2i in runs 0-8 and 90 in run 9
    assert tiny["metrics"]["work_per_s"] == {
        "change": {"q1": 142.5, "median": 147.0, "q3": 151.5}, "pairs": 10}
    small = summary["train-small"]
    assert small["pairs"] == 3
    assert small["flagged"] == [
        {"pair": 2, "tree": "change", "seed": 42, "correct": False, "failed": 2}]
    lines = bench.format_summary(summary)
    assert lines[0].split()[-1] == "runs"
    assert lines[2].split() == ["gradcheck-tiny", "work_per_s", "147", "[142.5,", "151.5]", "10"]
    assert lines[-1].endswith("FLAGGED pair 2 change seed 42: correct False, failed 2")


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_every_committed_record_holds_the_summary_of_its_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record["trees"]) <= {"change", "base"}
    assert record["summary"] == bench.summarize(record["runs"], END_TO_END)


def test_tree_info_records_the_path_length_and_unequal_lengths_warn(tmp_path):
    short, long = tmp_path / "a", tmp_path / "bbb"
    for tree in (short, long):
        (tree / "src").mkdir(parents=True)
    (long / "src" / "m.pyc").write_bytes(b"")
    trees = {"change": bench.tree_info(short), "base": bench.tree_info(long)}
    assert trees["change"]["path_length"] == len(str(short.resolve()))
    assert trees["base"]["path_length"] == trees["change"]["path_length"] + 2
    assert (trees["change"]["bytecode_cache"], trees["base"]["bytecode_cache"]) == (False, True)
    assert trees["change"]["dirty"] is None                # not under git
    warnings = bench.tree_warnings(trees)
    assert len(warnings) == 2
    assert "the base tree has bytecode" in warnings[0]
    assert "paths differ in length" in warnings[1] and "peak_rss_mb" in warnings[1]
    trees["base"].update(bytecode_cache=False, path_length=trees["change"]["path_length"])
    assert bench.tree_warnings(trees) == []


# perfbench/run.py of a fake checkout: its first two calls (pair 0, or runs 0
# and 1 without a base) give a result; every later one starts a worker,
# writes both pids and sleeps
FAKE_RUN = """\
import json, os, subprocess, sys, time
from pathlib import Path
calls = Path("calls")
n = len(calls.read_text()) if calls.exists() else 0
calls.write_text("x" * (n + 1))
if n < 2:
    print("environment " + json.dumps({"python": "3"}))
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"work_per_s": {"value": 1.0, "unit": "1/s"}}}))
    sys.exit()
worker = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
Path("pids.tmp").write_text(f"{os.getpid()} {worker.pid}")
os.replace("pids.tmp", "pids")
time.sleep(60)
"""


def alive(pid: int) -> bool:
    """Whether ``pid`` runs: it exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def fake_checkout(tmp_path) -> Path:
    """A checkout with this bench.py, FAKE_RUN as its perfbench/run.py and one workload."""
    tree = tmp_path / "tree"
    (tree / "scripts").mkdir(parents=True)
    (tree / "perfbench").mkdir()
    shutil.copy(ROOT / "scripts" / "bench.py", tree / "scripts")
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN)
    (tree / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": END_TO_END}))
    return tree


def test_a_session_without_a_base_runs_this_checkout_alone(tmp_path):
    tree = fake_checkout(tmp_path)
    proc = subprocess.run([sys.executable, str(tree / "scripts" / "bench.py"), "--label", "t",
                           "--runs", "2", "--seed0", "5"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tree / "BENCH_t.json").read_text())
    assert list(record["trees"]) == ["change"]
    assert [(run["pair"], run["tree"], run["seed"]) for run in record["runs"]] == \
        [(0, "change", 5), (1, "change", 6)]
    assert record["summary"]["w"]["metrics"]["work_per_s"] == \
        {"change": {"q1": 1.0, "median": 1.0, "q3": 1.0}, "pairs": 2}
    assert proc.stdout.splitlines()[-2].split() == ["w", "work_per_s", "1", "[1,", "1]", "2"]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_stopped_session_kills_its_run_and_keeps_the_pairs_done(tmp_path, signum):
    tree = fake_checkout(tmp_path)
    proc = subprocess.Popen([sys.executable, str(tree / "scripts" / "bench.py"),
                             "--against", str(tree), "--label", "t", "--runs", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    pids = []
    try:
        deadline = time.monotonic() + 30
        while not (tree / "pids").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        pids = [int(pid) for pid in (tree / "pids").read_text().split()]
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 128 + signum
        assert f"stopped by signal {int(signum)}" in err
        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in pids):         # the run and its worker
            assert time.monotonic() < deadline, [pid for pid in pids if alive(pid)]
            time.sleep(0.02)
        record = json.loads((tree / "BENCH_t.json").read_text())
        assert [(run["pair"], run["tree"]) for run in record["runs"]] == \
            [(0, "change"), (0, "base")]
        assert not (tree / "BENCH_t.json.tmp").exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if not pids and (tree / "pids").exists():
            pids = [int(pid) for pid in (tree / "pids").read_text().split()]
        for pid in pids:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
