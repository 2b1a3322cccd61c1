import json
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ggrnet.checkpoint import load_checkpoint
from ggrnet.cli import main
from ggrnet.config import resolve_schema
from ggrnet.data import Molecule, SplitSpec, load_dataset, sample_dataset_path, split
from ggrnet.model import forward
from ggrnet.training import PREDICT_CHUNK, evaluate

BASE_CONFIG = """
dataset.path = builtin:sample10
dataset.schema = builtin:sample
dataset.elements = H,C,N,O,F
target = energy
split.seed = 7
model.atom_dim = 6
model.count_dim = 4
model.hidden_dim = 8
model.mlp_dim = 8
model.steps = 2
train.lr0 = 0.05
train.decay = 0.005
train.epochs = 3
train.batch_size = 4
train.seed = 1
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    cfg = tmp / "run.cfg"
    cfg.write_text(BASE_CONFIG)
    out = tmp / "out"
    rc = main(["train", "--config", str(cfg), "--out", str(out), "--threads", "1"])
    assert rc == 0
    return out


def read_metrics(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts(trained_run):
    for name in ("manifest.cfg", "metrics.jsonl", "timing.jsonl", "best.ckpt",
                 "final.ckpt", "report.json"):
        assert (trained_run / name).exists(), name
    metrics = read_metrics(trained_run / "metrics.jsonl")
    assert len(metrics) == 3
    assert set(metrics[0]) == {"epoch", "lr", "train_mse", "val_mae", "grad_norm"}
    report = json.loads((trained_run / "report.json").read_text())
    assert report["property"] == "energy"
    assert report["unit"] == "arb"
    assert len(report["runs"]) == 1


TIMING_PARTS = ("forward_s", "backward_s", "update_s", "eval_s")


def test_timing_records_count_minor_page_faults(trained_run):
    # wall-clock-dependent signals stay off the deterministic metrics stream
    records = read_metrics(trained_run / "timing.jsonl")
    assert [rec["epoch"] for rec in records] == [0, 1, 2]
    for rec in records:
        assert set(rec) == {"epoch", "seconds", "minor_faults", *TIMING_PARTS}
        assert type(rec["minor_faults"]) is int and rec["minor_faults"] >= 0


def test_timing_records_split_each_epoch(trained_run):
    for rec in read_metrics(trained_run / "timing.jsonl"):
        parts = [rec[key] for key in TIMING_PARTS]
        assert all(type(part) is float and part >= 0.0 for part in parts), rec
        assert rec["forward_s"] > 0.0 and rec["backward_s"] > 0.0 and rec["eval_s"] > 0.0
        assert sum(parts) <= rec["seconds"], rec


def test_train_epoch_override(config_file, tmp_path, capsys):
    out = tmp_path / "short"
    rc = main(["train", "--config", str(config_file), "--out", str(out), "--epochs", "1"])
    assert rc == 0
    assert len(read_metrics(out / "metrics.jsonl")) == 1
    stdout = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(stdout)["property"] == "energy"


def test_train_missing_dataset(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dataset.path = /nonexistent/data.xyz\ntarget = energy\n")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "/nonexistent/data.xyz" in capsys.readouterr().err


def test_train_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dataset.path = builtin:sample10\nmodel.nonsense = 3\n")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nonsense" in capsys.readouterr().err


def test_train_missing_config_file(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path)])
    assert rc == 2


def test_train_numerical_abort_exit_code(config_file, tmp_path, capsys):
    # an overflow in the recursion (1e308) or in the loss (1e100): the op's
    # error is the one line besides the progress lines, and numpy warns of nothing
    for lr0 in ("1e308", "1e100"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--config", str(config_file), "--out", str(tmp_path / lr0),
                       "--set", f"train.lr0={lr0}"])
        assert rc == 4
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if not re.match(r"run \d+ epoch \d+: ", line)]
        assert len(lines) == 1 and lines[0].startswith("error: training aborted at epoch "), lines
        assert [str(w.message) for w in caught] == []


def test_train_multi_runs(config_file, tmp_path):
    out = tmp_path / "multi"
    rc = main(["train", "--config", str(config_file), "--out", str(out),
               "--epochs", "1", "--runs", "2"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["runs"]) == 2
    assert report["runs"][0]["seed"] + 1 == report["runs"][1]["seed"]
    assert (out / "run0" / "best.ckpt").exists()
    assert (out / "run1" / "metrics.jsonl").exists()
    assert "mean_test_mae_best" in report


@pytest.mark.parametrize("source", ["file", "set", "flag"])
@pytest.mark.parametrize("key,value", [("run.runs", "0"), ("run.runs", "-2"),
                                       ("run.threads", "-1")])
def test_bad_run_or_thread_count_is_one_line_exit_2(tmp_path, capsys, source, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CONFIG + (f"{key} = {value}\n" if source == "file" else ""))
    extra = {"file": [], "set": ["--set", f"{key}={value}"],
             "flag": ["--" + key.split(".")[1], value]}[source]
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"), *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key '{key}'") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra, key", [
    (["--set", "train.lr0=-1"], "train.lr0"),
    (["--set", "train.lr0=nan"], "train.lr0"),
    (["--set", "train.lr0=inf"], "train.lr0"),
    (["--set", "train.decay=nan"], "train.decay"),
    (["--set", "train.decay=-0.5"], "train.decay"),
    (["--set", "train.clip_norm=nan"], "train.clip_norm"),
    (["--set", "train.clip_norm=0"], "train.clip_norm"),
    (["--set", "train.batch_size=0"], "train.batch_size"),
    (["--set", "train.epochs=0"], "train.epochs"),
    (["--set", "train.seed=-1"], "train.seed"),
    (["--seed", "-5"], "train.seed"),
    (["--set", "split.train=0.9"], "split.train, split.val and split.test"),
    (["--set", "split.val=nan"], "split.val"),
    (["--set", "split.test=0"], "split.test"),
    (["--set", "split.seed=-1"], "split.seed"),
    (["--set", "model.distance_epsilon=nan"], "model.distance_epsilon"),
    (["--set", "model.steps=0"], "model.steps"),
    (["--set", "target="], "config key 'target'"),
    (["--set", "train.decay=inf"], "train.decay"),
    (["--set", "model.distance_epsilon=inf"], "model.distance_epsilon"),
    (["--set", "dataset.path=builtin:nosuch"], "dataset.path"),
    (["--set", "dataset.path="], "dataset.path"),
    (["--set", "dataset.schema=builtin:nosuch"], "schema 'builtin:nosuch':"),
])
def test_out_of_range_setting_is_one_line_exit_2_naming_its_key(config_file, tmp_path, capsys,
                                                                extra, key):
    out = tmp_path / "o"
    assert main(["train", "--config", str(config_file), "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", [["train"], ["train", "--runs", "2"],
                                     ["ablate", "--which", "no_count"]],
                         ids=["train", "train-runs", "ablate"])
@pytest.mark.parametrize("settings, start", [
    (["dataset.path={dir}", "dataset.format=tabular"],
     "format 'tabular' cannot read directory {dir}"),
    (["dataset.path={dir}"], "no .xyz files under directory {dir}"),
    (["split.train=0.9", "split.val=0.05", "split.test=0.05"],
     "split of 10 molecules gives sizes (10, 0, 0)"),
    (["target=nosuch"], "target 'nosuch' not among dataset properties"),
    (["dataset.path={constant}"], "target 'energy' is constant over the training set"),
], ids=["tabular-dir", "dir-without-xyz", "empty-partition", "unknown-target",
        "constant-target"])
def test_an_input_that_fails_is_one_line_exit_3_and_makes_no_out(config_file, tmp_path, capsys,
                                                                 command, settings, start):
    # the data is read, its target found, every run's split made and its
    # normalizer fitted before --out
    places = {"dir": tmp_path / "molecules", "constant": tmp_path / "constant.xyz"}
    places["dir"].mkdir()
    # ten two-atom molecules that all have energy 1.0
    places["constant"].write_text("".join(f"2\nc{k} 1.0 0.0\nH 0 0 0\nH 0 0 {1 + k / 10}\n"
                                          for k in range(10)))
    out = tmp_path / "o"
    sets = [arg for setting in settings for arg in ("--set", setting.format(**places))]
    assert main([*command, "--config", str(config_file), "--out", str(out), *sets]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: " + start.format(**places)) and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("argv, what", [
    (["train", "--set", "model.steps=1000000000000"], "the recursion's workspace"),
    (["train", "--set", "model.hidden_dim=1000000000000"], "parameter tensor 'gate_weight'"),
    (["gradcheck", "--steps", "1000000000000"], "the recursion's workspace"),
    (["gradcheck", "--hidden-dim", "1000000000000"], "parameter tensor 'gate_weight'"),
])
def test_an_impossible_allocation_is_one_line_exit_2(config_file, tmp_path, capsys, argv, what):
    # numpy refuses each size at once, so nothing is allocated
    if argv[0] == "train":
        argv = [*argv, "--config", str(config_file), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot allocate {what} ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", [["train"], ["ablate", "--which", "no_count"]],
                         ids=["train", "ablate"])
@pytest.mark.parametrize("setting, what", [
    ("model.steps=1000000000000", "the recursion's workspace"),
    ("model.hidden_dim=1000000000", "parameter tensor 'gate_weight'"),
], ids=["workspace", "parameters"])
def test_an_impossible_allocation_makes_no_out(config_file, tmp_path, capsys, command, setting,
                                               what):
    # the parameters and the largest training batch's recorded workspace are
    # requested, and freed, before --out is made
    out = tmp_path / "o"
    assert main([*command, "--config", str(config_file), "--out", str(out),
                 "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot allocate {what} ") and err.count("\n") == 1, err
    assert not out.exists()


def test_the_allocation_check_asks_for_the_largest_training_batch(config_file, tmp_path,
                                                                  monkeypatch):
    import ggrnet.training as training

    asked = []

    def workspace_size(cfg, sizes, **kwargs):
        asked.append((cfg.hidden_dim, list(sizes), kwargs))
        return real(cfg, sizes, **kwargs)

    real = training._workspace_size
    monkeypatch.setattr(training, "_workspace_size", workspace_size)
    assert main(["train", "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--runs", "2", "--resplit", "--epochs", "1"]) == 0
    ds = load_dataset(sample_dataset_path(), schema=resolve_schema("builtin:sample"))
    # split.seed 7, stepped by run.resplit; train.batch_size 4, whose grids
    # fit the training budget, so the request holds all of them; and the
    # validation pass's chunk of the largest validation molecules
    expected = []
    for seed in (7, 8):
        train_ds, val_ds, _ = split(ds, SplitSpec(seed=seed))
        batch = sorted((m.natoms for m in train_ds), reverse=True)[:4]
        expected += [(8, batch, {"recording": True,
                                 "grid_pairs": sum(n * n for n in batch if n > 1)}),
                     (8, sorted((m.natoms for m in val_ds), reverse=True)[:PREDICT_CHUNK], {})]
    # each run is set up before --out is made, then again by train
    assert asked == 2 * expected


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_a_data_file_that_cannot_be_opened_is_one_line_exit_3(trained_run, config_file,
                                                               tmp_path, capsys, monkeypatch,
                                                               command):
    import builtins
    import errno
    import os

    import ggrnet.data

    def denied(file, *args, **kwargs):
        if str(file) == str(molecules):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
        return builtins.open(file, *args, **kwargs)

    molecules = tmp_path / "m.xyz"
    molecules.write_bytes(sample_dataset_path().read_bytes())
    out = tmp_path / "o"
    argv = {"train": ["train", "--config", str(config_file), "--out", str(out),
                      "--set", f"dataset.path={molecules}"],
            "eval": ["eval", str(trained_run / "best.ckpt"), "--data", str(molecules)],
            "predict": ["predict", str(trained_run / "best.ckpt"), str(molecules)]}[command]
    monkeypatch.setattr(ggrnet.data, "open", denied, raising=False)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {molecules}: cannot read: Permission denied\n"
    assert not out.exists()


def test_train_resplit_steps_the_split_seed(config_file, tmp_path):
    runs = {}
    for name, extra in (("same", []), ("resplit", ["--resplit"])):
        out = tmp_path / name
        assert main(["train", "--config", str(config_file), "--out", str(out),
                     "--epochs", "1", "--runs", "2", *extra]) == 0
        runs[name] = json.loads((out / "report.json").read_text())["runs"]
    assert [run["split_seed"] for run in runs["same"]] == [7, 7]
    assert [run["split_seed"] for run in runs["resplit"]] == [7, 8]
    assert [run["seed"] for run in runs["resplit"]] == [1, 2]
    # the first run is the same run either way; the second trains on another split
    assert runs["resplit"][0] == runs["same"][0]
    assert runs["resplit"][1]["test_mae_best"] != runs["same"][1]["test_mae_best"]


def test_each_resplit_run_has_a_manifest_that_evaluates_and_reproduces_it(config_file, tmp_path,
                                                                        capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_file), "--out", str(out), "--runs", "2",
                 "--resplit", "--threads", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    for run in report["runs"]:
        run_dir = out / f"run{run['run']}"
        manifest = run_dir / "manifest.cfg"
        values = dict(line.split(" = ") for line in manifest.read_text().splitlines())
        assert (values["split.seed"], values["train.seed"]) == \
            (str(run["split_seed"]), str(run["seed"]))
        assert (values["run.runs"], values["run.resplit"]) == ("1", "false")
        # eval with a run's manifest evaluates that run's test partition
        assert main(["eval", str(run_dir / "best.ckpt"), "--config", str(manifest)]) == 0
        assert json.loads(capsys.readouterr().out)["mae"] == run["test_mae_best"]
        # and train with it reproduces the run
        again = tmp_path / f"again{run['run']}"
        assert main(["train", "--config", str(manifest), "--out", str(again),
                     "--threads", "1"]) == 0
        capsys.readouterr()
        for name in ("metrics.jsonl", "best.ckpt", "final.ckpt", "manifest.cfg"):
            assert (again / name).read_bytes() == (run_dir / name).read_bytes(), name
    # the base manifest splits each run anew, so no test partition is the runs'
    assert main(["eval", str(out / "run1" / "best.ckpt"), "--config",
                 str(out / "manifest.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config file {out / 'manifest.cfg'}: ")
    assert "run<k>/manifest.cfg" in captured.err and captured.err.count("\n") == 1


def test_report_means_and_spreads_are_those_of_its_runs(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_file), "--out", str(out), "--runs", "2",
                 "--resplit", "--threads", "1"]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"property", "unit", "runs", "blas_threads", "mean_test_mae_best",
                           "spread_test_mae_best", "mean_test_mae_final",
                           "spread_test_mae_final"}
    for name in ("best", "final"):
        values = [run[f"test_mae_{name}"] for run in report["runs"]]
        assert report[f"mean_test_mae_{name}"] == sum(values) / len(values)
        assert report[f"spread_test_mae_{name}"] == max(values) - min(values)


@pytest.mark.parametrize("command", ["eval", "predict", "gradcheck"])
def test_negative_threads_flag_is_one_line_exit_2(trained_run, tmp_path, capsys, command):
    # the inputs of eval and predict have data errors (exit 3), but the flag
    # is checked before any input is read
    bad = tmp_path / "bad.xyz"
    bad.write_text("2\nm\nC 0 0 0\n")
    args = {"eval": ["eval", str(trained_run / "best.ckpt"), "--data", str(bad)],
            "predict": ["predict", str(trained_run / "best.ckpt"), str(tmp_path / "none.xyz")],
            "gradcheck": ["gradcheck", "--seeds", "1"]}[command]
    assert main([*args, "--threads", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --threads must be >= 0") and err.count("\n") == 1, err


def test_train_report_records_blas_threads(trained_run):
    from ggrnet.cli import _blas_thread_control

    report = json.loads((trained_run / "report.json").read_text())
    expected = None if _blas_thread_control() is None else 1  # trained with --threads 1
    assert report["blas_threads"] == expected


def test_train_rerun_from_manifest_is_bit_identical(trained_run, tmp_path):
    out2 = tmp_path / "again"
    rc = main(["train", "--config", str(trained_run / "manifest.cfg"),
               "--out", str(out2), "--threads", "1"])
    assert rc == 0
    for name in ("metrics.jsonl", "best.ckpt", "final.ckpt", "report.json"):
        assert (trained_run / name).read_bytes() == (out2 / name).read_bytes(), name
    assert (trained_run / "manifest.cfg").read_text() == (out2 / "manifest.cfg").read_text()


# ---------------------------------------------------------------------------
# eval


def test_eval_matches_train_report(trained_run, capsys):
    report = json.loads((trained_run / "report.json").read_text())
    for ckpt, key in (("best.ckpt", "test_mae_best"), ("final.ckpt", "test_mae_final")):
        rc = main(["eval", str(trained_run / ckpt),
                   "--config", str(trained_run / "manifest.cfg")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mae"] == report["runs"][0][key]
        assert payload["property"] == "energy"


def test_eval_residuals_are_prediction_minus_target(trained_run, capsys):
    ckpt = str(trained_run / "best.ckpt")
    assert main(["eval", ckpt, "--data", str(sample_dataset_path()), "--schema",
                 "builtin:sample", "--residuals"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["predict", ckpt, str(sample_dataset_path())]) == 0
    preds = [float(line.split("\t")[1]) for line in capsys.readouterr().out.splitlines()]
    targets = load_dataset(sample_dataset_path(), "xyz",
                           resolve_schema("builtin:sample")).target_values("energy")
    assert set(payload) == {"property", "unit", "n", "mae", "residuals"}
    assert payload["n"] == len(payload["residuals"]) == 10
    assert payload["residuals"] == [p - t for p, t in zip(preds, targets)]
    assert payload["mae"] == pytest.approx(
        sum(map(abs, payload["residuals"])) / 10, rel=1e-12)


@pytest.mark.parametrize("suffix, delimiter", [(".csv", ","), (".tsv", "\t")])
def test_eval_reads_a_tabular_file_by_its_suffix(trained_run, tmp_path, capsys, suffix,
                                                 delimiter):
    ds = load_dataset(sample_dataset_path(), "xyz", resolve_schema("builtin:sample"))
    rows = [["id", "atoms", "coords", "energy"]] + [
        [m.mol_id, " ".join(m.symbols), " ".join(repr(c) for c in m.coords.ravel().tolist()),
         repr(m.targets["energy"])] for m in ds]
    table = tmp_path / f"sample{suffix}"
    table.write_text("".join(delimiter.join(row) + "\n" for row in rows))
    ckpt = str(trained_run / "best.ckpt")
    assert main(["eval", ckpt, "--data", str(table)]) == 0
    from_table = json.loads(capsys.readouterr().out)
    assert main(["eval", ckpt, "--data", str(sample_dataset_path()),
                 "--schema", "builtin:sample"]) == 0
    from_xyz = json.loads(capsys.readouterr().out)
    assert from_table["n"] == 10 and from_table["mae"] == from_xyz["mae"]


def test_eval_corrupted_checkpoint(trained_run, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((trained_run / "best.ckpt").read_bytes()[:40])
    rc = main(["eval", str(bad), "--config", str(trained_run / "manifest.cfg")])
    assert rc == 2


@pytest.mark.parametrize("command", [["eval", "--data", "x.xyz"], ["predict", "x.xyz"]])
def test_missing_checkpoint_is_one_line_exit_2(tmp_path, capsys, command):
    missing = str(tmp_path / "none.ckpt")
    rc = main([command[0], missing, *command[1:]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and missing in err


def test_eval_empty_dataset(trained_run, tmp_path):
    empty = tmp_path / "empty.xyz"
    empty.write_text("\n")
    rc = main(["eval", str(trained_run / "best.ckpt"), "--data", str(empty),
               "--schema", "builtin:sample"])
    assert rc == 3


def test_eval_needs_source(tmp_path, capsys):
    # the flags are checked before the checkpoint is read
    assert main(["eval", str(tmp_path / "missing.ckpt")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: eval needs either --config or --data\n")


def with_elements(trained_run, tmp_path, elements, data=None):
    """The run's manifest with ``dataset.elements`` (and ``dataset.path``) replaced."""
    text = (trained_run / "manifest.cfg").read_text()
    assert "dataset.elements = H,C,N,O,F\n" in text
    text = text.replace("dataset.elements = H,C,N,O,F", f"dataset.elements = {elements}")
    if data is not None:
        text = text.replace("dataset.path = builtin:sample10", f"dataset.path = {data}")
    path = tmp_path / "elements.cfg"
    path.write_text(text)
    return path


def test_eval_encodes_each_molecule_through_the_checkpoint_vocabulary(trained_run, tmp_path,
                                                                      capsys):
    # a config whose vocabulary reorders and extends the checkpoint's reads
    # the same molecules, which are encoded by symbol, so nothing changes
    ckpt = trained_run / "best.ckpt"
    superset = with_elements(trained_run, tmp_path, "F,O,N,C,H,S")
    outputs = []
    for cfg in (trained_run / "manifest.cfg", superset):
        assert main(["eval", str(ckpt), "--config", str(cfg), "--partition", "all",
                     "--residuals"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    loaded = load_checkpoint(ckpt)
    schema = resolve_schema("builtin:sample")
    reports = [evaluate(loaded.params, load_dataset(sample_dataset_path(), "xyz", schema, vocab),
                        loaded.normalizer, loaded.config, loaded.vocabulary, "energy",
                        with_residuals=True)
               for vocab in (loaded.vocabulary, ["F", "O", "N", "C", "H", "S"])]
    assert reports[0] == reports[1]


def test_eval_of_an_element_outside_the_checkpoint_vocabulary_names_the_molecule(
        trained_run, tmp_path, capsys):
    data = tmp_path / "sulfur.xyz"
    data.write_text("1\nc0 1.0 1\nC 0 0 0\n2\ncs 1.0 2\nC 0 0 0\nS 0 0 1.5\n")
    cfg = with_elements(trained_run, tmp_path, "F,O,N,C,H,S", data)
    assert main(["eval", str(trained_run / "best.ckpt"), "--config", str(cfg),
                 "--partition", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: molecule 'cs': element 'S' not in vocabulary "
                            "['H', 'C', 'N', 'O', 'F']\n")


def test_eval_of_a_dataset_without_the_checkpoint_target_names_it(trained_run, tmp_path,
                                                                  capsys):
    table = tmp_path / "gap.csv"
    table.write_text("id,atoms,coords,gap\nm0,C H,0 0 0 0 0 1.1,0.5\n")
    assert main(["eval", str(trained_run / "best.ckpt"), "--data", str(table)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'energy'" in captured.err
    assert captured.err.count("\n") == 1


def test_eval_partition_without_config_is_one_line_exit_2(trained_run, capsys):
    rc = main(["eval", str(trained_run / "best.ckpt"), "--data", str(sample_dataset_path()),
               "--schema", "builtin:sample", "--partition", "val"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eval --partition needs --config\n"


ONLY_WITH_DATA = "eval --schema and --format go with --data, not --config"


@pytest.mark.parametrize("extra, message", [
    (["--data", str(sample_dataset_path())], "eval takes --config or --data, not both"),
    (["--schema", "builtin:nonexistent"], ONLY_WITH_DATA),
    (["--format", "tabular"], ONLY_WITH_DATA),
], ids=["data", "schema", "format"])
def test_eval_data_beside_config_is_one_line_exit_2(trained_run, capsys, extra, message):
    rc = main(["eval", str(trained_run / "best.ckpt"), "--config",
               str(trained_run / "manifest.cfg"), *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# schemas


SCHEMA_FAULTS = {
    "unknown builtin": None,
    "missing file": None,
    "malformed JSON": "{bad",
    "not an object": "[0, 1]",
    "targets not an object": '{"targets": [1, 2]}',
    "negative target column": '{"targets": {"energy": -1}}',
    "non-integer target column": '{"targets": {"energy": "1"}}',
    "id_columns not a list": '{"id_columns": 0, "targets": {"energy": 1}}',
    "id_columns not ints": '{"id_columns": [0.5], "targets": {"energy": 1}}',
}


def _faulty_schema(tmp_path, fault):
    if fault == "unknown builtin":
        return "builtin:nope"
    path = tmp_path / "schema.json"
    if SCHEMA_FAULTS[fault] is not None:
        path.write_text(SCHEMA_FAULTS[fault])
    return str(path)


@pytest.mark.parametrize("entry", ["predict --schema", "eval --schema", "dataset.schema"])
@pytest.mark.parametrize("fault", list(SCHEMA_FAULTS))
def test_unusable_schema_is_one_line_exit_2(trained_run, tmp_path, capsys, entry, fault):
    schema = _faulty_schema(tmp_path, fault)
    ckpt = str(trained_run / "best.ckpt")
    if entry == "predict --schema":
        argv = ["predict", ckpt, str(sample_dataset_path()), "--schema", schema]
    elif entry == "eval --schema":
        argv = ["eval", ckpt, "--data", str(sample_dataset_path()), "--schema", schema]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG + f"dataset.schema = {schema}\n")
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: schema '{schema}': ")


# ---------------------------------------------------------------------------
# BLAS thread cap


def test_thread_cap_sets_and_restores_blas_threads():
    from ggrnet.cli import _blas_thread_control, _thread_cap

    control = _blas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this numpy build")
    _, get_threads = control
    before = get_threads()
    with _thread_cap(2):
        outer = get_threads()
        with _thread_cap(1):
            assert get_threads() == 1
        assert get_threads() == outer
    assert get_threads() == before


def test_thread_cap_warns_without_blas_control(monkeypatch, capsys):
    import ggrnet.cli as cli

    monkeypatch.setattr(cli, "_blas_thread_control", lambda: None)
    with cli._thread_cap(1):
        pass
    assert capsys.readouterr().err.startswith("warning: ")
    with cli._thread_cap(None):
        pass
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# predict


def test_predict_deterministic_lines(trained_run, tmp_path, capsys):
    rc = main(["predict", str(trained_run / "best.ckpt"), str(sample_dataset_path())])
    assert rc == 0
    first = capsys.readouterr().out.splitlines()
    assert len(first) == 10
    rc = main(["predict", str(trained_run / "best.ckpt"), str(sample_dataset_path())])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == first
    name, value = first[0].split("\t")
    assert name == "sample0"
    float(value)


def test_predict_equals_per_molecule_forward(trained_run, capsys):
    from ggrnet.data import iter_extended_xyz_records

    assert main(["predict", str(trained_run / "best.ckpt"), str(sample_dataset_path())]) == 0
    lines = capsys.readouterr().out.splitlines()
    ckpt = load_checkpoint(trained_run / "best.ckpt")
    molecules = list(iter_extended_xyz_records([sample_dataset_path().read_bytes()], None,
                                               ckpt.vocabulary))
    assert [line.split("\t")[0] for line in lines] == [m.mol_id for m in molecules]
    for line, mol in zip(lines, molecules):
        expected = ckpt.normalizer.invert(
            forward(None, mol, ckpt.params, ckpt.config, ckpt.vocabulary).item())
        assert float(line.split("\t")[1]) == expected


def test_predict_single_atom_is_offset_only(trained_run, tmp_path, capsys):
    # a 1-atom molecule carries no pair structure: prediction is the
    # inverse-transformed zero-state readout, whatever the element/position
    f1 = tmp_path / "one.xyz"
    f1.write_text("1\na\nC 0.0 0.0 0.0\n")
    f2 = tmp_path / "two.xyz"
    f2.write_text("1\nb\nO 5.0 -3.0 2.0\n")
    ckpt = load_checkpoint(trained_run / "best.ckpt")
    carbon = Molecule("x", ("C",), np.zeros((1, 3)), {})
    expected = ckpt.normalizer.invert(
        forward(None, carbon, ckpt.params, ckpt.config, ckpt.vocabulary).item())
    values = []
    for f in (f1, f2):
        assert main(["predict", str(trained_run / "best.ckpt"), str(f)]) == 0
        values.append(float(capsys.readouterr().out.split("\t")[1]))
    assert values[0] == values[1] == expected


def test_predict_unknown_element(trained_run, tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("1\nm\nZz 0 0 0\n")
    rc = main(["predict", str(trained_run / "best.ckpt"), str(bad)])
    assert rc == 3
    assert "Zz" in capsys.readouterr().err


def test_predict_parse_error_reports_line(trained_run, tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("2\nm\nC 0 0 0\n")
    rc = main(["predict", str(trained_run / "best.ckpt"), str(bad)])
    assert rc == 3
    assert "line 4" in capsys.readouterr().err


def test_predict_holds_one_chunk_of_molecules_at_a_time(trained_run, tmp_path, capsys,
                                                        monkeypatch):
    import weakref

    import ggrnet.cli as cli
    from ggrnet.data import read_extended_xyz
    from ggrnet.training import PREDICT_CHUNK

    molecules = tmp_path / "many.xyz"
    molecules.write_text(sample_dataset_path().read_text() * 4)
    alive, most = [0], []

    def released():
        alive[0] -= 1

    def counted(*args):
        for mol in read_extended_xyz(*args):
            alive[0] += 1
            weakref.finalize(mol, released)
            most.append(alive[0])
            yield mol

    monkeypatch.setattr(cli, "read_extended_xyz", counted)
    assert main(["predict", str(trained_run / "best.ckpt"), str(molecules)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(most) == 40
    # one chunk, plus the record being parsed
    assert max(most) <= PREDICT_CHUNK + 1


def test_predict_prints_earlier_chunks_before_a_malformed_record(trained_run, tmp_path,
                                                                 capsys):
    good = sample_dataset_path().read_text() * 2
    molecules = tmp_path / "late.xyz"
    molecules.write_text(good + "2\nbroken\nC 0 0 0\n")
    assert main(["predict", str(trained_run / "best.ckpt"), str(molecules)]) == 3
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 20
    assert err == f"error: {molecules}: line {len(good.splitlines()) + 4}: expected atom " \
                  f"line 2 of 2, found end of input\n"


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--seeds", "2", "--atoms", "1,2,4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("seed=") == 2
    assert "max_error=" in out


def test_gradcheck_negative_control(capsys):
    rc = main(["gradcheck", "--seeds", "1", "--atoms", "2,3", "--corrupt"])
    assert rc == 5
    assert "gradient check failed" in capsys.readouterr().err


def test_gradcheck_bad_atom_list():
    assert main(["gradcheck", "--atoms", "0,2"]) == 2


def test_gradcheck_numerical_abort_names_the_seed_and_tensor(capsys):
    # a step of 1e200 in a readout weight makes the loss overflow: one line
    # names the check's seed and the tensor perturbed, and numpy warns of nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["gradcheck", "--seed", "3", "--seeds", "2", "--fd-step", "1e200"])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: seed 3, perturbations of 'readout_w0': "
        "non-finite values produced by op 'mse_loss'"]
    assert [str(w.message) for w in caught] == []


# generated molecules of these sizes keep every pair 0.7 apart, and a gradient
# check over them returns (rejection sampling in the fixed 4 Å cube found no
# place past about 175 atoms, so this runs in a process of its own)
LARGE_MOLECULES = """
import sys
import numpy as np
from ggrnet.cli import main
from ggrnet.synth import random_molecule
for n in (180, 400):
    coords = random_molecule(np.random.default_rng(n), n).coords
    dist = np.linalg.norm(coords[:, None] - coords[None], axis=2) + np.eye(n)
    assert dist.min() >= 0.7, (n, dist.min())
sys.exit(main(["gradcheck", "--seeds", "1", "--atoms", "180", "--atom-dim", "1",
               "--count-dim", "1", "--hidden-dim", "1", "--mlp-dim", "1", "--steps", "1"]))
"""


def test_gradcheck_of_molecules_too_large_for_the_default_cube_returns():
    proc = subprocess.run([sys.executable, "-c", LARGE_MOLECULES], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "max_error=" in proc.stdout


# ---------------------------------------------------------------------------
# ablate


def test_ablate_table(config_file, tmp_path, capsys):
    out = tmp_path / "abl"
    rc = main(["ablate", "--config", str(config_file), "--which", "no_count",
               "--epochs", "1", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "variant\tval_mae\ttest_mae"
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["full", "no_count"]
    rows = json.loads((out / "ablation.json").read_text())
    assert rows[1]["variant"] == "no_count"
    assert rows[1]["val_mae"] == float(lines[2].split("\t")[1])


def test_ablate_all_gives_four_rows(config_file, capsys):
    rc = main(["ablate", "--config", str(config_file), "--which", "all", "--epochs", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split("\t")[0] for ln in lines[1:]] == \
        ["full", "no_count", "no_distance", "no_atom_embed"]


def test_ablate_invalid_name(config_file, capsys):
    rc = main(["ablate", "--config", str(config_file), "--which", "no_gravity"])
    assert rc == 2
    assert "no_count" in capsys.readouterr().err  # usage text lists valid choices


def test_ablate_makes_and_checks_only_the_split_it_trains(config_file, tmp_path, capsys):
    # ten two-atom molecules of energy 1.0 but c0's 2.0; split seeds 9, 10 and
    # 11 leave c0 out of the training partition, whose target is then
    # constant, but ablate trains on the first run's split (seed 7) only
    data = tmp_path / "one_differs.xyz"
    data.write_text("".join(f"2\nc{k} {2.0 if k == 0 else 1.0} 0.0\nH 0 0 0\nH 0 0 {1 + k / 10}\n"
                            for k in range(10)))
    sets = ["--set", f"dataset.path={data}", "--epochs", "1"]
    runs = ["--set", "run.resplit=true", "--set", "run.runs=10"]
    tables = []
    for extra in ([], runs):
        out = tmp_path / f"abl{len(tables)}"
        assert main(["ablate", "--config", str(config_file), "--which", "no_count",
                     "--out", str(out), *sets, *extra]) == 0
        tables.append((out / "ablation.json").read_text())
    assert tables[0] == tables[1]
    capsys.readouterr()
    # train trains every run, so it checks every split
    out = tmp_path / "train"
    assert main(["train", "--config", str(config_file), "--out", str(out), *sets, *runs]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: target 'energy' is constant over the training set"), err
    assert not out.exists()


# ---------------------------------------------------------------------------
# reading inputs


@pytest.fixture()
def pipe():
    """``pipe(data)``: the ``/dev/fd`` path of a pipe that holds ``data`` and
    whose write end is closed, as a shell's process substitution gives."""
    ends = []

    def make(data: bytes) -> str:
        r, w = os.pipe()
        ends.append(r)
        os.write(w, data)
        os.close(w)
        return f"/dev/fd/{r}"

    yield make
    for fd in ends:
        os.close(fd)


def test_predict_and_train_read_from_a_pipe(trained_run, config_file, tmp_path, capsys, pipe):
    ckpt = str(trained_run / "best.ckpt")
    assert main(["predict", ckpt, str(sample_dataset_path())]) == 0
    from_file = capsys.readouterr().out
    assert main(["predict", ckpt, pipe(sample_dataset_path().read_bytes())]) == 0
    assert capsys.readouterr().out == from_file
    out = tmp_path / "o"
    assert main(["train", "--config", pipe(config_file.read_bytes()), "--out", str(out),
                 "--threads", "1"]) == 0
    for name in ("manifest.cfg", "metrics.jsonl", "best.ckpt"):
        assert (out / name).read_bytes() == (trained_run / name).read_bytes(), name


@pytest.mark.parametrize("kind", ["config", "schema"])
def test_an_undecodable_byte_after_a_byte_order_mark_names_its_line(trained_run, tmp_path,
                                                                    capsys, kind):
    path = tmp_path / kind
    bom = "\ufeff".encode()
    if kind == "config":
        path.write_bytes(bom + b"dataset.path = builtin:sample10\ntarget = \xff\n")
        argv, start = ["train", "--config", str(path)], f"config file {path}"
    else:
        path.write_bytes(bom + b'{"targets":\n {"\xff": 1}}')
        argv = ["eval", str(trained_run / "best.ckpt"), "--data", str(sample_dataset_path()),
                "--schema", str(path)]
        start = f"schema '{path}'"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {start}: line 2: not UTF-8 text\n"


@pytest.mark.parametrize("command, code", [("train", 2), ("predict", 3)])
def test_a_missing_config_or_molecule_file_is_one_line(trained_run, tmp_path, capsys, command,
                                                       code):
    missing = tmp_path / "missing"
    argv, name = {"train": (["train", "--config", str(missing), "--out", str(tmp_path / "o")],
                            f"config file {missing}"),
                  "predict": (["predict", str(trained_run / "best.ckpt"), str(missing)],
                              str(missing))}[command]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name}: cannot read: No such file or directory\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_checkpoint_with_a_non_finite_value_is_one_line_exit_2(trained_run, tmp_path, capsys,
                                                                  command):
    ckpt = tmp_path / "nan.ckpt"
    raw = (trained_run / "best.ckpt").read_bytes()
    ckpt.write_bytes(raw[:-8] + struct.pack("<d", float("nan")))
    data = str(sample_dataset_path())
    argv = {"eval": ["eval", str(ckpt), "--data", data],
            "predict": ["predict", str(ckpt), data]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ckpt}: non-finite values in tensor 'readout_b2'\n"


# ---------------------------------------------------------------------------
# bad command-line inputs


@pytest.mark.parametrize("argv, code, start", [
    (["gradcheck", "--seeds", "0"], 2, "--seeds must be >= 1"),
    (["gradcheck", "--fd-step", "0"], 2, "--fd-step must be finite and > 0"),
    (["gradcheck", "--fd-step", "nan"], 2, "--fd-step must be finite and > 0"),
    (["gradcheck", "--atoms", "1,x"], 2, "--atoms must list positive atom counts"),
    (["gradcheck", "--seed", "-5"], 2, "--seed must be >= 0"),
    (["gradcheck", "--threshold", "nan"], 2, "--threshold must be > 0"),
    (["train", "--config", "{cfg}", "--out", "{file}"], 2, "--out '{file}'"),
    (["train", "--config", "{cfg}", "--out", "{file}/sub"], 2, "--out '{file}/sub'"),
    (["train", "--config", "{cfg}", "--out", "{dir}", "--runs", "2"], 2, "--out '{dir}/run1'"),
    (["ablate", "--config", "{cfg}", "--which", "all", "--out", "{file}"], 2, "--out '{file}'"),
    (["eval", "{ckpt}", "--data", "{dir}"], 3, "empty.xyz: line 1: "),
    (["eval", "{ckpt}", "--data", "{nested}"], 3, "sub.xyz: cannot read: "),
    (["eval", "{ckpt}", "--data", "{dir}", "--format", "tabular"], 3,
     "format 'tabular' cannot read directory {dir}"),
    (["train", "--config", "{latin}", "--out", "{empty}/o"], 2,
     "config file {latin}: line 1: not UTF-8 text\n"),
    (["ablate", "--config", "{latin}", "--which", "all"], 2,
     "config file {latin}: line 1: not UTF-8 text\n"),
    (["eval", "{ckpt}", "--config", "{latin}"], 2, "config file {latin}: line 1: not UTF-8 text\n"),
    (["train", "--config", "{noeq}", "--out", "{empty}/o"], 2,
     "config line 1: expected 'key = value'"),
    (["train", "--config", "{cfg}", "--out", "{empty}/o", "--set", "noequals"], 2,
     "override 'noequals' is not of the form key=value"),
    (["train", "--config", "{cfg}", "--out", "{empty}/o", "--set", "dataset.elements=,"], 2,
     "config key 'dataset.elements': empty element list"),
    (["train", "--config", "{cfg}", "--out", "{empty}/o", "--set", "dataset.format=nope"], 2,
     "dataset.format must be one of"),
    (["eval", "{ckpt}", "--data", "{nocol}", "--schema", "builtin:sample"], 3,
     "{nocol}: line 2: property record has only 0 fields"),
    (["eval", "{ckpt}", "--data", "{short}"], 3, "{short}: line 3: atom line needs 'symbol x y z'"),
    (["predict", "{ckpt}", "{short}"], 3, "{short}: line 3: atom line needs 'symbol x y z'"),
    (["eval", "{ckpt}", "--data", "{sulfur}"], 3, "{sulfur}: line 4: unknown element symbol 'S'"),
    (["predict", "{ckpt}", "{sulfur}"], 3, "{sulfur}: line 4: unknown element symbol 'S'"),
    (["eval", "{ckpt}", "--data", "{empty}"], 3, "no .xyz files under directory {empty}"),
    (["eval", "{ckpt}", "--data", "{xx}"], 3, "{xx}: record 1: unknown element symbol 'Xx'\n"),
], ids=["seeds", "fd-step", "fd-step-nan", "atoms", "seed", "threshold-nan", "train-out",
        "train-out-below", "train-run-dir", "ablate-out", "eval-dir", "eval-dir-entry",
        "eval-dir-tabular", "train-config-not-utf8", "ablate-config-not-utf8",
        "eval-config-not-utf8", "config-line-without-equals", "set-without-equals",
        "empty-element-list", "unknown-format", "comment-without-id", "eval-short-atom-line",
        "predict-short-atom-line", "eval-unknown-element", "predict-unknown-element",
        "eval-dir-without-xyz", "eval-tabular-unknown-element"])
def test_bad_input_is_one_line_with_its_exit_code(trained_run, config_file, tmp_path, capsys,
                                                 argv, code, start):
    places = {"cfg": config_file, "file": tmp_path / "taken", "ckpt": trained_run / "best.ckpt",
              "dir": tmp_path / "molecules", "nested": tmp_path / "nested",
              "empty": tmp_path / "empty", "latin": tmp_path / "latin.cfg",
              "noeq": tmp_path / "noeq.cfg", "nocol": tmp_path / "nocol.xyz",
              "short": tmp_path / "short.xyz", "sulfur": tmp_path / "sulfur.xyz",
              "xx": tmp_path / "xx.csv"}
    places["file"].write_text("")
    places["empty"].mkdir()
    places["latin"].write_bytes(b"\xff\xfe")
    places["noeq"].write_text("dataset.path\n")
    places["nocol"].write_text("1\n\nC 0 0 0\n")          # the schema's id column 0 is missing
    places["short"].write_text("1\nm\nC 0 0\n")
    places["sulfur"].write_text("2\ncs 0.5 2\nC 0 0 0\nS 1 0 0\n")
    places["xx"].write_text("id,atoms,coords,energy\nm0,C Xx,0 0 0 1 0 0,0.5\n")
    places["dir"].mkdir()
    (places["dir"] / "a.xyz").write_text("1\na 0.5 1\nC 0 0 0\n")
    (places["dir"] / "empty.xyz").write_text("")
    (places["dir"] / "run1").write_text("")        # where train --runs 2 puts a directory
    (places["nested"] / "sub.xyz").mkdir(parents=True)
    assert main([arg.format(**places) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + start.format(**places)), captured.err
    assert captured.err.count("\n") == 1, captured.err


# ---------------------------------------------------------------------------
# outputs that cannot be written, and interrupts


def ggrnet_command(*args):
    return [sys.executable, "-m", "ggrnet", *map(str, args)]


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_a_stream_closed_by_its_reader_ends_the_command_quietly_with_141(trained_run, tmp_path,
                                                                        stream):
    import fcntl

    if stream == "stdout":    # 400 molecules, one result line each
        many = tmp_path / "many.xyz"
        many.write_bytes(sample_dataset_path().read_bytes() * 40)
        command = ggrnet_command("predict", trained_run / "best.ckpt", many)
    else:                     # one progress line per epoch
        command = ggrnet_command("train", "--config", trained_run / "manifest.cfg", "--out",
                                 tmp_path / "out", "--epochs", "100000")
    read_end, write_end = os.pipe()
    # a pipe of one page, which the command fills long before it is done
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    other = "stderr" if stream == "stdout" else "stdout"
    proc = subprocess.Popen(command, **{stream: write_end, other: subprocess.PIPE})
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert reader.readline()
    out, err = proc.communicate(timeout=300)
    assert (proc.returncode, out or b"", err or b"") == (141, b"", b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("command", ["eval", "predict", "help"])
def test_stdout_that_cannot_be_written_is_one_line_exit_2(trained_run, command, buffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    ckpt, data = trained_run / "best.ckpt", sample_dataset_path()
    argv = {"eval": ["eval", ckpt, "--data", data, "--schema", "builtin:sample"],
            "predict": ["predict", ckpt, data], "help": ["--help"]}[command]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(ggrnet_command(*argv), stdout=full, stderr=subprocess.PIPE,
                              env=env, timeout=300)
    assert (proc.returncode, proc.stderr.decode()) == \
        (2, "error: standard output: cannot write: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command, code", [("eval", 2), ("train", 0)])
def test_stderr_that_cannot_be_written_keeps_the_exit_code(config_file, tmp_path, command, code):
    # the error line of eval, or train's progress lines, are lost, and the
    # command exits as it would with them written
    argv = {"eval": ["eval", tmp_path / "missing.ckpt", "--data", sample_dataset_path()],
            "train": ["train", "--config", config_file, "--out", tmp_path / "out",
                      "--epochs", "2"]}[command]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(ggrnet_command(*argv), stdout=subprocess.PIPE, stderr=full,
                              timeout=300)
    assert proc.returncode == code
    if command == "train":
        assert json.loads(proc.stdout) == json.loads((tmp_path / "out" / "report.json").read_text())


@pytest.mark.parametrize("name", ["manifest.cfg", "metrics.jsonl", "best.ckpt", "report.json",
                                  "ablation.json"])
def test_a_result_file_that_cannot_be_written_is_one_line_exit_2(config_file, tmp_path,
                                                                 capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    command = ["ablate", "--which", "no_count"] if name == "ablation.json" else ["train"]
    assert main([*command, "--config", str(config_file), "--out", str(out),
                 "--epochs", "1"]) == 2
    lines = [line for line in capsys.readouterr().err.splitlines() if " epoch " not in line]
    assert lines == [f"error: {out / name}: cannot write: Is a directory"]
    # the temporary file written in its place is removed
    assert [path.name for path in out.iterdir() if path.name.startswith(".")] == []


def test_an_interrupt_is_one_line_exit_130(config_file, tmp_path, capsys, monkeypatch):
    import ggrnet.cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(ggrnet.cli, "train", interrupted)
    try:
        rc = main(["train", "--config", str(config_file), "--out", str(tmp_path / "out")])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped main")
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (130, "", "error: interrupted\n")


# ---------------------------------------------------------------------------
# process-level entry


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ggrnet", "gradcheck", "--seeds", "1", "--atoms", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "max_error=" in proc.stdout


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["train", "--help"]) == 0
