"""Tests of the benchmark itself.

    python3 -m pytest -p no:cacheprovider perfbench/selftest.py

The file name keeps it out of the repository's own test run: these tests
start full benchmark runs and take a couple of minutes.
"""
from __future__ import annotations

import copy
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
# figures computed from shapes and call counts, which must repeat exactly
COUNT_UNITS = {"count", "GFLOP", "MB", "B"}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for top in dirs:
        for path in sorted(top.rglob("*")):
            h.update(str(path.relative_to(ROOT)).encode())
            if path.is_file():
                h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture
def scratch():
    """A directory inside the checkout, as the benchmark itself uses."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=parent))
    yield path
    shutil.rmtree(path)
    if not any(parent.iterdir()):
        parent.rmdir()


def test_pinned_predictions_match_the_oracle(scratch):
    import worker
    from ggrnet import checkpoint, data
    from oracle import straightline_forward

    worker.prepare("infer-qm9", 0, scratch)
    ckpt = checkpoint.load_checkpoint(scratch / "model.ckpt")
    ds = data.load_dataset(scratch / "data.xyz", "xyz", worker.SCHEMA, ckpt.vocabulary)
    pinned = REFERENCE["infer-qm9"]["0"]["predictions"]
    nine_atom = [i for i, mol in enumerate(ds) if mol.natoms == 9][:2]
    assert nine_atom
    for i in nine_atom:
        raw = straightline_forward(ds[i], ckpt.params, ckpt.config, ckpt.vocabulary)
        expected = ckpt.normalizer.invert(raw)
        assert abs(pinned[i] - expected) <= 1e-10 * max(1.0, abs(expected))


def _expected(workload: str, seed: str) -> dict:
    """The ``units`` and ``molecules`` of ``check_outputs`` for a pinned worker."""
    ref = REFERENCE[workload][seed]
    if workload.startswith("train"):
        return {"units": len(ref["train_mse"])}
    if workload == "infer-qm9":
        return {"units": 1, "molecules": len(ref["predictions"])}
    return {"units": 1}


def _pinned_worker(workload: str, seed: str) -> dict:
    ref = copy.deepcopy(REFERENCE[workload][seed])
    if workload.startswith("train"):
        outputs = dict(ref, checkpoint_round_trip=True)
    elif workload == "infer-qm9":
        outputs = {"predictions": [list(ref["predictions"])]}
    else:
        outputs = {"max_error": [ref["max_error"]],
                   "parameter_count": [ref["parameter_count"]]}
    return {"error": None, "outputs": outputs}


PERTURB = [
    ("train-qm9", lambda o: o["train_mse"].__setitem__(1, o["train_mse"][1] * (1 + 1e-5))),
    ("train-small", lambda o: o["val_mae"].__setitem__(0, o["val_mae"][0] * (1 + 1e-5))),
    ("infer-qm9", lambda o: o["predictions"][0].__setitem__(
        3, o["predictions"][0][3] + 1e-8 * max(1.0, abs(o["predictions"][0][3])))),
    ("gradcheck-tiny", lambda o: o["max_error"].__setitem__(0, 1e-8)),
    # truncated outputs: training ended early, a molecule dropped, a check skipped
    ("train-qm9", lambda o: (o["train_mse"].pop(), o["val_mae"].pop())),
    ("infer-qm9", lambda o: o["predictions"][0].pop()),
    ("gradcheck-tiny", lambda o: (o["max_error"].pop(), o["parameter_count"].pop())),
]


@pytest.mark.parametrize("workload,change", PERTURB)
def test_pinned_outputs_pass_and_one_changed_output_fails(workload, change):
    good = _pinned_worker(workload, "0")
    expected = _expected(workload, "0")
    checks = run.check_outputs(workload, 0, [good, _pinned_worker(workload, "0")],
                               REFERENCE, **expected)
    assert checks and all(ok for _, ok in checks)
    bad = _pinned_worker(workload, "0")
    change(bad["outputs"])
    checks = run.check_outputs(workload, 0, [good, bad], REFERENCE, **expected)
    failed = [name for name, ok in checks if not ok]
    assert failed and all(name.startswith("worker 1") for name in failed), failed


def test_a_raising_worker_counts_as_failed():
    good = _pinned_worker("infer-qm9", "0")
    checks = run.check_outputs("infer-qm9", 0, [{"error": "Traceback\nNumericalError: x",
                                                 "outputs": {}}, good], REFERENCE,
                               **_expected("infer-qm9", "0"))
    assert [name for name, ok in checks if not ok] == ["worker 0 raised: NumericalError: x"]


def test_traced_counts_repeat_exactly_and_sources_stay_untouched():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    counted.append("autodiff.selector_flop_share")
    before = tree_digest(ROOT / "src", ROOT / "tests")
    for workload in ("train-small", "gradcheck-tiny"):
        first, second = (result_of(bench(workload, 3, trace=1)) for _ in range(2))
        assert first["correct"] and second["correct"]
        values = [{k: r["metrics"][k]["value"] for k in counted} for r in (first, second)]
        assert values[0] == values[1], workload
        metrics = first["metrics"]
        assert 0.95 < metrics["trace.layer_frac"]["value"] <= 1.0
        if workload == "gradcheck-tiny":
            assert metrics["gradcheck.forward_calls"]["value"] > 0
        else:
            assert metrics["autodiff.tape_entries_per_mol"]["value"] > 0
        assert not list(ROOT.glob(f".perfbench_tmp/{workload}-*"))
    assert tree_digest(ROOT / "src", ROOT / "tests") == before


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = result_of(bench("gradcheck-tiny", 5, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench")
    proc = bench("train-small", 0, trace=0, cwd=scratch)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
