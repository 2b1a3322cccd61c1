"""``scripts/bench.py``'s parsing and summary, on recorded output: no benchmark runs."""
import importlib.util
import json
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
