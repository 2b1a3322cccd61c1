"""Command-line interface: train, eval, predict, gradcheck, ablate.

All commands are non-interactive. Machine-parseable results go to stdout,
progress and diagnostics to stderr. Exit codes: 0 success, 2 configuration
or checkpoint error or an output that cannot be written, 3 data error, 4
numerical abort, 5 gradient-check failure, 130 interrupted, 141 stdout or
stderr closed by its reader.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import signal
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .config import RunSpec, load_run_spec, resolve_schema
from .data import DATASET_FORMATS, Dataset, load_dataset, read_extended_xyz, split
from .errors import (CheckpointError, ConfigError, DataError, NumericalError, OutputError,
                     ParseError, VocabularyError, writing)
from .gradcheck import DEFAULT_CHECK_CONFIG, run_gradcheck
from .training import ABLATION_FLAGS, evaluate, predict, run_ablation, setup_run, train

__all__ = ["main", "entrypoint", "build_parser"]


# C thread-count functions of the OpenBLAS builds numpy ships with or links to
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                        "openblas_{}_num_threads")


def _blas_thread_control():
    """``(set, get)`` of the loaded OpenBLAS's thread count, or ``None`` if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            setter = getattr(lib, symbol.format("set"), None)
            getter = getattr(lib, symbol.format("get"), None)
            if setter is not None and getter is not None:
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                getter.restype, getter.argtypes = ctypes.c_int, []
                return setter, getter
    return None


@contextlib.contextmanager
def _thread_cap(n: int | None):
    """Cap BLAS worker threads at ``n`` (0 or ``None``: no cap), restoring the
    previous count on exit; --threads 1 makes numerics run-to-run identical.
    Yields the thread count the loaded OpenBLAS reports in effect, or ``None``
    when it offers no thread control."""
    if n is not None and n < 0:
        raise ConfigError(f"--threads must be >= 0 (0 means no cap), got {n}")
    control = _blas_thread_control()
    if control is None:
        if n:
            _diagnose("warning: no OpenBLAS thread control found; BLAS threads not capped")
        yield None
        return
    set_threads, get_threads = control
    previous = get_threads()
    if n:
        set_threads(n)
    try:
        yield get_threads()
    finally:
        set_threads(previous)


def _load_spec_dataset(spec: RunSpec) -> Dataset:
    return load_dataset(spec.dataset_path(), spec["dataset.format"], spec.schema(),
                        spec["dataset.elements"])


# shorthand flags of train and ablate -> the config keys they override
_FLAG_KEYS = {"epochs": "train.epochs", "seed": "train.seed", "runs": "run.runs",
              "threads": "run.threads"}


def _flag_overrides(args) -> list[str]:
    """The ``--set`` overrides, then one per shorthand flag the command was given."""
    overrides = list(args.overrides)
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            overrides.append(f"{key}={getattr(args, flag)}")
    if getattr(args, "resplit", False):
        overrides.append("run.resplit=true")
    return overrides


def _training_inputs(args, every_run: bool) -> tuple[
        RunSpec, str, list[tuple[RunSpec, tuple[Dataset, Dataset, Dataset]]]]:
    """The inputs of train and ablate: the run spec, its target's unit, and
    the spec (:meth:`RunSpec.run`) and ``(train, val, test)`` split of each
    run the command trains: all ``run.runs`` when ``every_run``, else the
    first. The spec's ``train.*``, ``model.*``, ``split.*`` and ``dataset.*``
    values are checked, then the dataset is read, the splits made and each
    run set up as :func:`train` sets it up (:func:`setup_run`), so an input
    that fails does so before any output is made."""
    spec = load_run_spec(args.config, _flag_overrides(args))
    spec.train_config()
    spec.split_spec()
    ds = _load_spec_dataset(spec)
    runs = []
    for r in range(spec["run.runs"] if every_run else 1):
        run = spec.run(r)
        partitions = split(ds, run.split_spec())
        setup_run(*partitions[:2], run.train_config())
        runs.append((run, partitions))
    return spec, ds.units.get(spec["target"], ""), runs


def _out_dir(path) -> Path:
    """An ``--out`` directory, made now, so that a path that cannot be one
    fails before any work starts."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out '{path}': cannot make a directory: {err.strerror}") from err
    return out


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _append(path: Path, text: str, mode: str = "a") -> None:
    """Write ``text`` at the end of the file at ``path`` (``mode="w"``: as its
    whole content) and close it, so that a failed write is one line naming it."""
    with writing(path), open(path, mode, encoding="utf-8") as fh:
        fh.write(text)


def _print(*lines: str) -> None:
    """Print result lines to stdout and flush them, so that a failed write is
    one line naming standard output."""
    with writing("standard output"):
        for line in lines:
            print(line)
        sys.stdout.flush()


def _diagnose(line: str) -> None:
    """Print a progress or error line to stderr. A stderr closed by its reader
    ends the command (exit 141); one that fails otherwise loses the line, and
    the command goes on to its own exit code."""
    try:
        print(line, file=sys.stderr)
    except BrokenPipeError:
        raise
    except OSError:
        pass


def _cmd_train(args) -> int:
    spec, unit, runs = _training_inputs(args, every_run=True)
    target = spec["target"]
    out = _out_dir(args.out)
    run_dirs = [out] if len(runs) == 1 else [_out_dir(out / f"run{r}")
                                             for r in range(len(runs))]
    _write_text(out / "manifest.cfg", spec.manifest_text())
    if len(runs) > 1:
        for run_dir, (run, _) in zip(run_dirs, runs):
            _write_text(run_dir / "manifest.cfg", run.manifest_text())
    run_infos = []
    with _thread_cap(spec["run.threads"]) as blas_threads:
        for r, (run_dir, (run, (train_ds, val_ds, test_ds))) in enumerate(zip(run_dirs, runs)):
            cfg = run.train_config()
            metrics, timing = run_dir / "metrics.jsonl", run_dir / "timing.jsonl"
            _append(metrics, "", "w")
            _append(timing, "", "w")

            def on_epoch(rep, _metrics=metrics, _timing=timing, _run=r):
                _append(_metrics, json.dumps(
                    {"epoch": rep.epoch, "lr": rep.lr, "train_mse": rep.train_mse,
                     "val_mae": rep.val_mae, "grad_norm": rep.grad_norm}, sort_keys=True) + "\n")
                _append(_timing, json.dumps(
                    {"epoch": rep.epoch, "seconds": rep.seconds, "forward_s": rep.forward_s,
                     "backward_s": rep.backward_s, "update_s": rep.update_s,
                     "eval_s": rep.eval_s, "minor_faults": rep.minor_faults}) + "\n")
                _diagnose(f"run {_run} epoch {rep.epoch}: lr={rep.lr:.6g} "
                          f"train_mse={rep.train_mse:.6g} val_mae={rep.val_mae:.6g} "
                          f"({rep.seconds:.2f}s)")

            result = train(train_ds, val_ds, cfg, epoch_callback=on_epoch)

            info = {"run": r, "seed": cfg.seed, "split_seed": run["split.seed"],
                    "best_epoch": result.best_epoch, "best_val_mae": result.best_val_mae}
            for name, params in (("best", result.best_params), ("final", result.final_params)):
                save_checkpoint(run_dir / f"{name}.ckpt", params, cfg.model, result.vocabulary,
                                result.normalizer, target, unit)
                info[f"test_mae_{name}"] = evaluate(params, test_ds, result.normalizer,
                                                    cfg.model, result.vocabulary, target).mae
            run_infos.append(info)

    report = {"property": target, "unit": unit, "runs": run_infos, "blas_threads": blas_threads}
    for name in ("best", "final"):
        values = [info[f"test_mae_{name}"] for info in run_infos]
        report[f"mean_test_mae_{name}"] = sum(values) / len(values)
        report[f"spread_test_mae_{name}"] = max(values) - min(values)
    _write_text(out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    _print(json.dumps(report, sort_keys=True))
    return 0


_PARTITIONS = {"train": 0, "val": 1, "test": 2}


def _cmd_eval(args) -> int:
    if not (args.config or args.data):
        raise ConfigError("eval needs either --config or --data")
    if args.config and args.data:
        raise ConfigError("eval takes --config or --data, not both")
    if args.config and (args.schema or args.format != "auto"):
        raise ConfigError("eval --schema and --format go with --data, not --config")
    if args.partition and not args.config:
        raise ConfigError("eval --partition needs --config")
    with _thread_cap(args.threads):
        ckpt = load_checkpoint(args.checkpoint)
        if args.config:
            spec = load_run_spec(args.config)
            if spec["run.resplit"] and spec["run.runs"] > 1:
                raise ConfigError(f"config file {args.config}: each of its {spec['run.runs']} "
                                  f"runs has its own split (run.resplit); evaluate run k "
                                  f"with --config run<k>/manifest.cfg")
            ds = _load_spec_dataset(spec)
            partition = args.partition or "test"
            if partition != "all":
                ds = split(ds, spec.split_spec())[_PARTITIONS[partition]]
        else:
            schema = resolve_schema(args.schema)
            ds = load_dataset(args.data, args.format, schema, ckpt.vocabulary)
        report = evaluate(ckpt.params, ds, ckpt.normalizer, ckpt.config, ckpt.vocabulary,
                          ckpt.target_property, with_residuals=args.residuals)
    payload = {"property": ckpt.target_property, "unit": ckpt.unit, "n": report.n,
               "mae": report.mae}
    if args.residuals:
        payload["residuals"] = list(report.residuals)
    _print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_predict(args) -> int:
    with _thread_cap(args.threads):
        ckpt = load_checkpoint(args.checkpoint)
        schema = resolve_schema(args.schema)
        with contextlib.closing(read_extended_xyz(args.molecules, args.molecules, schema,
                                                  ckpt.vocabulary)) as molecules:
            # predict reads, predicts and prints one chunk before it reads the
            # next, so memory does not grow with the file
            for mol, value in predict(ckpt.params, molecules, ckpt.config, ckpt.vocabulary,
                                      ckpt.normalizer):
                _print(f"{mol.mol_id}\t{value!r}")
    return 0


# the model sizes gradcheck takes as --atom-dim ... --steps
_CHECK_SIZES = ("atom_dim", "count_dim", "hidden_dim", "mlp_dim", "steps")


def _cmd_gradcheck(args) -> int:
    try:
        atom_counts = [int(tok) for tok in args.atoms.split(",") if tok.strip()]
    except ValueError:
        atom_counts = []
    if not atom_counts or min(atom_counts) < 1:
        raise ConfigError(f"--atoms must list positive atom counts, got '{args.atoms}'")
    for flag, ok, bound in (("seed", args.seed >= 0, ">= 0"), ("seeds", args.seeds >= 1, ">= 1"),
                            ("fd_step", 0 < args.fd_step < math.inf, "finite and > 0"),
                            ("threshold", args.threshold > 0, "> 0")):
        if not ok:
            raise ConfigError(f"--{flag.replace('_', '-')} must be {bound}, "
                              f"got {getattr(args, flag)}")
    cfg = replace(DEFAULT_CHECK_CONFIG, **{name: getattr(args, name) for name in _CHECK_SIZES})
    with _thread_cap(args.threads):
        reports = run_gradcheck(seed=args.seed, seeds=args.seeds, atom_counts=atom_counts,
                                cfg=cfg, fd_step=args.fd_step, corrupt=args.corrupt)
    worst = max(reports, key=lambda rep: rep.max_error)
    _print(*(f"seed={args.seed + k} params={rep.parameter_count} max_error={rep.max_error:.3e} "
             f"worst={rep.worst_tensor}{list(rep.worst_index)}" for k, rep in enumerate(reports)),
           f"max_error={worst.max_error:.6e} threshold={args.threshold:.6e}")
    if worst.max_error < args.threshold:
        return 0
    _diagnose(f"gradient check failed: {worst.worst_tensor}{list(worst.worst_index)} "
              f"error {worst.max_error:.3e} >= {args.threshold:.3e}")
    return 5


def _cmd_ablate(args) -> int:
    spec, _, [(run, partitions)] = _training_inputs(args, every_run=False)
    out = _out_dir(args.out) if args.out else None
    which = list(ABLATION_FLAGS) if args.which == "all" else [args.which]

    def progress(name, rep):
        _diagnose(f"{name} epoch {rep.epoch}: train_mse={rep.train_mse:.6g} "
                  f"val_mae={rep.val_mae:.6g}")

    with _thread_cap(spec["run.threads"]):
        rows = run_ablation(run.train_config(), *partitions, which, epoch_callback=progress)

    _print("variant\tval_mae\ttest_mae",
           *(f"{row.name}\t{row.val_mae!r}\t{row.test_mae!r}" for row in rows))
    if out is not None:
        _write_text(out / "manifest.cfg", spec.manifest_text())
        payload = [{"variant": row.name, "val_mae": row.val_mae, "test_mae": row.test_mae}
                   for row in rows]
        _write_text(out / "ablation.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Prints its help as results are printed (:func:`_print`), so that a
    failed write is one line, exit 2: argparse's own printing ignores it."""

    def print_help(self, file=None):
        if file is None:
            _print(self.format_help().removesuffix("\n"))
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ggrnet",
        description="Gated graph recursive network for molecular property regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of train and ablate that set up a training run
    setup = argparse.ArgumentParser(add_help=False)
    setup.add_argument("--config", required=True, help="run config file (flat key = value)")
    setup.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
    setup.add_argument("--epochs", type=int, help="override train.epochs")
    setup.add_argument("--seed", type=int, help="override train.seed")
    setup.add_argument("--threads", type=int, help="cap BLAS threads (1 = bit-reproducible)")

    p = sub.add_parser("train", parents=[setup],
                       help="split, normalize, train, and evaluate per config")
    p.add_argument("--out", default="ggrnet_run", help="output directory")
    p.add_argument("--runs", type=int, help="independent runs with stepped seeds")
    p.add_argument("--resplit", action="store_true",
                   help="also step the split seed across runs")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="MAE of a checkpoint on a dataset")
    p.add_argument("checkpoint")
    p.add_argument("--config", help="run config; evaluates its test partition")
    p.add_argument("--data", help="dataset file/directory; evaluates everything")
    p.add_argument("--format", default="auto", choices=DATASET_FORMATS)
    p.add_argument("--schema", help="comment-line schema (path or builtin:NAME)")
    p.add_argument("--partition", choices=("train", "val", "test", "all"),
                   help="with --config: which partition (default test)")
    p.add_argument("--residuals", action="store_true", help="include per-molecule residuals")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="print predictions for molecules in a file")
    p.add_argument("checkpoint")
    p.add_argument("molecules", help="extended-XYZ file (single or concatenated records)")
    p.add_argument("--schema", help="comment-line schema (path or builtin:NAME)")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("gradcheck", help="compare analytic gradients to finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=5, help="number of seeds to run")
    p.add_argument("--atoms", default="1,2,4,6", help="comma list of molecule sizes")
    for name in _CHECK_SIZES:
        p.add_argument("--" + name.replace("_", "-"), type=int,
                       default=getattr(DEFAULT_CHECK_CONFIG, name))
    p.add_argument("--fd-step", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", parents=[setup],
                       help="train full model plus feature ablations")
    p.add_argument("--which", required=True, choices=(*ABLATION_FLAGS, "all"))
    p.add_argument("--out", help="optional output directory for ablation.json")
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # a reader closed stdout or stderr: end quietly, as SIGPIPE would
        return 128 + signal.SIGPIPE
    finally:
        # output that cannot be flushed now would fail again, with a message,
        # in the interpreter's last flush: send it nowhere instead
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)


def _run(argv) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:       # after --help, or a usage error
            return int(exc.code or 0)
        # every op raises a NumericalError on a non-finite result; numpy's warnings add noise
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, CheckpointError, OutputError) as err:
        _diagnose(f"error: {err}")
        return 2
    except (ParseError, VocabularyError, DataError) as err:
        _diagnose(f"error: {err}")
        return 3
    except NumericalError as err:
        _diagnose(f"error: {err}")
        return 4
    except KeyboardInterrupt:
        _diagnose("error: interrupted")
        return 130


def entrypoint() -> None:
    sys.exit(main())
