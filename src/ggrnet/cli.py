"""Command-line interface: train, eval, predict, gradcheck, ablate.

All commands are non-interactive. Machine-parseable results go to stdout,
progress and diagnostics to stderr. Exit codes: 0 success, 2 configuration
or checkpoint error, 3 data error, 4 numerical abort, 5 gradient-check
failure.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .config import RunSpec, load_run_spec, resolve_schema
from .data import DATASET_FORMATS, Dataset, iter_extended_xyz_records, load_dataset, split
from .errors import (CheckpointError, ConfigError, DataError, NumericalError, ParseError,
                     VocabularyError)
from .gradcheck import DEFAULT_CHECK_CONFIG, run_gradcheck
from .training import ABLATION_FLAGS, evaluate, predict, run_ablation, train

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
            print("warning: no OpenBLAS thread control found; BLAS threads not capped",
                  file=sys.stderr)
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


def _checked_target(spec: RunSpec, ds: Dataset) -> str:
    target = spec["target"]
    if target not in ds.property_names:
        raise DataError(f"target '{target}' not among dataset properties {ds.property_names}")
    return target


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


def _training_spec(args) -> RunSpec:
    """The run spec of train and ablate, its ``target``, ``train.*``, ``model.*``
    and ``split.*`` values checked before any work starts."""
    spec = load_run_spec(args.config, _flag_overrides(args))
    spec.train_config()
    spec.split_spec()
    return spec


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


def _cmd_train(args) -> int:
    spec = _training_spec(args)
    out = _out_dir(args.out)
    runs = spec["run.runs"]
    run_dirs = [out] if runs == 1 else [_out_dir(out / f"run{r}") for r in range(runs)]
    with _thread_cap(spec["run.threads"]) as blas_threads:
        return _run_training(spec, out, run_dirs, blas_threads)


def _run_training(spec: RunSpec, out: Path, run_dirs: list[Path],
                  blas_threads: int | None) -> int:
    ds = _load_spec_dataset(spec)
    target = _checked_target(spec, ds)
    unit = ds.units.get(target, "")
    _write_text(out / "manifest.cfg", spec.manifest_text())

    run_infos = []
    for r, run_dir in enumerate(run_dirs):
        split_offset = r if spec["run.resplit"] else 0
        train_ds, val_ds, test_ds = split(ds, spec.split_spec(split_offset))
        cfg = spec.train_config(seed_offset=r)

        with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as metrics_fh, \
                open(run_dir / "timing.jsonl", "w", encoding="utf-8") as timing_fh:

            def on_epoch(rep, _metrics=metrics_fh, _timing=timing_fh, _run=r):
                _metrics.write(json.dumps(
                    {"epoch": rep.epoch, "lr": rep.lr, "train_mse": rep.train_mse,
                     "val_mae": rep.val_mae, "grad_norm": rep.grad_norm},
                    sort_keys=True) + "\n")
                _timing.write(json.dumps(
                    {"epoch": rep.epoch, "seconds": rep.seconds, "forward_s": rep.forward_s,
                     "backward_s": rep.backward_s, "update_s": rep.update_s,
                     "eval_s": rep.eval_s, "minor_faults": rep.minor_faults}) + "\n")
                print(f"run {_run} epoch {rep.epoch}: lr={rep.lr:.6g} "
                      f"train_mse={rep.train_mse:.6g} val_mae={rep.val_mae:.6g} "
                      f"({rep.seconds:.2f}s)", file=sys.stderr)

            result = train(train_ds, val_ds, cfg, epoch_callback=on_epoch)

        save_checkpoint(run_dir / "best.ckpt", result.best_params, cfg.model,
                        result.vocabulary, result.normalizer, target, unit)
        save_checkpoint(run_dir / "final.ckpt", result.final_params, cfg.model,
                        result.vocabulary, result.normalizer, target, unit)
        test_best = evaluate(result.best_params, test_ds, result.normalizer, cfg.model,
                             result.vocabulary, target)
        test_final = evaluate(result.final_params, test_ds, result.normalizer, cfg.model,
                              result.vocabulary, target)
        run_infos.append({"run": r, "seed": cfg.seed,
                          "split_seed": spec.split_spec(split_offset).seed,
                          "best_epoch": result.best_epoch,
                          "best_val_mae": result.best_val_mae,
                          "test_mae_best": test_best.mae,
                          "test_mae_final": test_final.mae})

    def agg(key):
        values = [info[key] for info in run_infos]
        return sum(values) / len(values), max(values) - min(values)

    mean_best, spread_best = agg("test_mae_best")
    mean_final, spread_final = agg("test_mae_final")
    report = {"property": target, "unit": unit, "runs": run_infos,
              "blas_threads": blas_threads,
              "mean_test_mae_best": mean_best, "spread_test_mae_best": spread_best,
              "mean_test_mae_final": mean_final, "spread_test_mae_final": spread_final}
    _write_text(out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    return 0


_PARTITIONS = {"train": 0, "val": 1, "test": 2}


def _cmd_eval(args) -> int:
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
            ds = _load_spec_dataset(spec)
            if list(ds.element_vocabulary) != list(ckpt.vocabulary):
                raise CheckpointError(f"vocabulary mismatch: dataset uses "
                                      f"{ds.element_vocabulary}, checkpoint expects "
                                      f"{ckpt.vocabulary}")
            partition = args.partition or "test"
            if partition != "all":
                ds = split(ds, spec.split_spec())[_PARTITIONS[partition]]
        elif args.data:
            schema = resolve_schema(args.schema)
            ds = load_dataset(args.data, args.format, schema, ckpt.vocabulary)
        else:
            raise ConfigError("eval needs either --config or --data")

        target = ckpt.target_property
        if target not in ds.property_names:
            raise DataError(f"checkpoint target '{target}' not among dataset properties "
                            f"{ds.property_names}")
        report = evaluate(ckpt.params, ds, ckpt.normalizer, ckpt.config, ckpt.vocabulary,
                          target, with_residuals=args.residuals)
    payload = {"property": target, "unit": ckpt.unit, "n": report.n, "mae": report.mae}
    if args.residuals:
        payload["residuals"] = list(report.residuals)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_predict(args) -> int:
    with _thread_cap(args.threads):
        ckpt = load_checkpoint(args.checkpoint)
        path = Path(args.molecules)
        if not path.is_file():
            raise DataError(f"molecule file not found: {path}")
        schema = resolve_schema(args.schema)
        with open(path, "rb") as fh:
            # predict reads, predicts and prints one chunk before it reads the
            # next, so memory does not grow with the file
            molecules = iter_extended_xyz_records(fh, schema, ckpt.vocabulary)
            for mol, value in predict(ckpt.params, molecules, ckpt.config, ckpt.vocabulary,
                                      ckpt.normalizer):
                print(f"{mol.mol_id}\t{value!r}", flush=True)
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
    for k, rep in enumerate(reports):
        print(f"seed={args.seed + k} params={rep.parameter_count} "
              f"max_error={rep.max_error:.3e} worst={rep.worst_tensor}{list(rep.worst_index)}")
    worst = max(reports, key=lambda rep: rep.max_error)
    print(f"max_error={worst.max_error:.6e} threshold={args.threshold:.6e}")
    if worst.max_error < args.threshold:
        return 0
    print(f"gradient check failed: {worst.worst_tensor}{list(worst.worst_index)} "
          f"error {worst.max_error:.3e} >= {args.threshold:.3e}", file=sys.stderr)
    return 5


def _cmd_ablate(args) -> int:
    spec = _training_spec(args)
    out = _out_dir(args.out) if args.out else None
    which = list(ABLATION_FLAGS) if args.which == "all" else [args.which]

    with _thread_cap(spec["run.threads"]):
        ds = _load_spec_dataset(spec)
        target = _checked_target(spec, ds)
        train_ds, val_ds, test_ds = split(ds, spec.split_spec())

        def progress(name, rep):
            print(f"{name} epoch {rep.epoch}: train_mse={rep.train_mse:.6g} "
                  f"val_mae={rep.val_mae:.6g}", file=sys.stderr)

        rows = run_ablation(spec.train_config(), train_ds, val_ds, test_ds, which,
                            epoch_callback=progress)

    print("variant\tval_mae\ttest_mae")
    for row in rows:
        print(f"{row.name}\t{row.val_mae!r}\t{row.test_mae!r}")
    if out is not None:
        _write_text(out / "manifest.cfg", spec.manifest_text())
        payload = [{"variant": row.name, "val_mae": row.val_mae, "test_mae": row.test_mae}
                   for row in rows]
        _write_text(out / "ablation.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggrnet",
        description="Gated graph recursive network for molecular property regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="split, normalize, train, and evaluate per config")
    p.add_argument("--config", required=True, help="run config file (flat key = value)")
    p.add_argument("--out", default="ggrnet_run", help="output directory")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--epochs", type=int, help="override train.epochs")
    p.add_argument("--seed", type=int, help="override train.seed")
    p.add_argument("--runs", type=int, help="independent runs with stepped seeds")
    p.add_argument("--resplit", action="store_true",
                   help="also step the split seed across runs")
    p.add_argument("--threads", type=int, help="cap BLAS threads (1 = bit-reproducible)")
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

    p = sub.add_parser("ablate", help="train full model plus feature ablations")
    p.add_argument("--config", required=True)
    p.add_argument("--which", required=True,
                   choices=(*ABLATION_FLAGS, "all"))
    p.add_argument("--out", help="optional output directory for ablation.json")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # every op raises a NumericalError on a non-finite result; numpy's warnings add noise
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, CheckpointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ParseError, VocabularyError, DataError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())
