"""One benchmark process: prepares a workload's inputs, or runs its work once.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src/``
and the BLAS thread variables already set, so numpy loads with one thread.
It refuses to run on a ``ggrnet`` imported from anywhere else.

    worker.py prepare --workload W --seed N --inputs DIR --out FILE
    worker.py run --workload W --seed N --inputs DIR --units K --trace 0|1
                  --spawned NS --out FILE [--spans FILE]

``prepare`` writes the generated inputs of a workload to ``DIR``. ``run``
measures ``K`` units of work (epochs, evaluation passes or gradient checks)
on them and writes the timings and every checked output to ``FILE``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import ggrnet
from ggrnet import checkpoint, data, gradcheck, model, synth, training

import tracing

SRC = Path(__file__).resolve().parent.parent / "src"
TARGET = "energy"
SCHEMA = data.CommentSchema(id_columns=(0,), target_columns={TARGET: 1},
                            units={TARGET: "arb"})
# ROADMAP defaults: dims 50/50/100/100, 5 steps, batch 10, lr0 0.03
MODEL = model.ModelConfig(atom_dim=50, count_dim=50, hidden_dim=100, mlp_dim=100, steps=5)
# input files: (first atom count, last atom count, step, molecules per count)
SIZES = {
    "train-qm9": {"train": (9, 29, 1, 1), "val": (9, 27, 3, 1)},
    "train-small": {"train": (3, 8, 1, 10), "val": (3, 8, 1, 2)},
    "infer-qm9": {"data": (9, 29, 1, 1)},
    "gradcheck-tiny": {},
}


def generated(seed: int, lo: int, hi: int, step: int, per_size: int,
              part: int) -> data.Dataset:
    """``per_size`` molecules of every ``step``-th atom count from ``lo`` to ``hi``.

    Every count appears equally often, so the work in a file is the same for
    every seed; the seed changes only geometry, elements and targets.
    """
    mols = []
    for n in range(lo, hi + 1, step):
        sub = synth.geometric_dataset(per_size, seed=seed * 1000 + part * 100 + n,
                                      n_atoms=(n, n), property_name=TARGET)
        for mol in sub:
            mols.append(data.Molecule(mol_id=f"m{len(mols)}", symbols=mol.symbols,
                                      coords=mol.coords, targets=mol.targets))
    return data.Dataset(mols, [TARGET], units={TARGET: "arb"})


def harness_params(seed: int, max_atom_count: int) -> model.ModelParams:
    """Training init with random biases, so every layer of the readout is live.

    gradcheck has a private helper like this; the harness keeps its own so
    that it depends on public names only.
    """
    params = model.init_params(MODEL, len(data.DEFAULT_ELEMENTS), max_atom_count, seed)
    rng = np.random.default_rng(seed + 1)
    for name, tensor in params.named():
        if "bias" in name or name.startswith("readout_b"):
            tensor.values[:] = rng.uniform(-0.5, 0.5, size=tensor.shape)
    return params


def prepare(workload: str, seed: int, inputs: Path) -> dict:
    files = {}
    for part, (name, sizes) in enumerate(SIZES[workload].items()):
        ds = generated(seed, *sizes, part)
        (inputs / f"{name}.xyz").write_text(
            "".join(data.format_extended_xyz(m, [TARGET]) for m in ds), encoding="utf-8")
        files[name] = len(ds)
    if workload == "infer-qm9":
        checkpoint.save_checkpoint(inputs / "model.ckpt",
                                   harness_params(seed, ds.max_atom_count), MODEL,
                                   ds.element_vocabulary, data.fit_normalizer(ds, TARGET),
                                   TARGET, "arb")
    return {"molecules": files}


# -- workloads: each returns (time of the first unit of work, samples, outputs),
# where a sample is one unit of work


def run_train(_seed, inputs, units, clock, tracer):
    train_ds = data.load_dataset(inputs / "train.xyz", "xyz", SCHEMA)
    val_ds = data.load_dataset(inputs / "val.xyz", "xyz", SCHEMA)
    # A fixed training seed gives every input seed the same batch order, and
    # the files list molecules by atom count, so batch sizes in atoms, and
    # with them the work and the peak memory, do not depend on the seed.
    cfg = training.TrainConfig(target_property=TARGET, lr0=0.03, epochs=units,
                               batch_size=10, seed=0, model=MODEL)
    epochs = []

    def on_epoch(rep):
        epochs.append((clock(), rep))
    if tracer is not None:
        on_epoch = tracer.wrap("harness.callback", on_epoch)
    result = training.train(train_ds, val_ds, cfg, epoch_callback=on_epoch)
    path = inputs / f"best-{os.getpid()}.ckpt"
    checkpoint.save_checkpoint(path, result.best_params, cfg.model, result.vocabulary,
                               result.normalizer, TARGET, "arb")
    loaded = checkpoint.load_checkpoint(path)
    path.unlink()
    round_trip = all(np.array_equal(a.values, b.values) for a, b in
                     zip(result.best_params.tensors(), loaded.params.tensors()))
    first_work = epochs[0][0] - epochs[0][1].seconds
    samples = [{"units": len(train_ds), "seconds": rep.seconds} for _, rep in epochs]
    outputs = {"train_mse": [rep.train_mse for _, rep in epochs],
               "val_mae": [rep.val_mae for _, rep in epochs],
               "checkpoint_round_trip": round_trip}
    return first_work, samples, outputs


def run_infer(_seed, inputs, units, clock, tracer):
    ckpt = checkpoint.load_checkpoint(inputs / "model.ckpt")
    first_work = clock()
    samples, predictions = [], []
    for _ in range(units):
        t0 = clock()
        ds = data.load_dataset(inputs / "data.xyz", "xyz", SCHEMA, ckpt.vocabulary)
        rep = training.evaluate(ckpt.params, ds, ckpt.normalizer, ckpt.config,
                                ckpt.vocabulary, TARGET, with_residuals=True)
        samples.append({"units": len(ds), "seconds": clock() - t0})
        predictions.append((ds.target_values(TARGET) + np.array(rep.residuals)).tolist())
    return first_work, samples, {"predictions": predictions}


def run_gradcheck(seed, inputs, units, clock, tracer):
    first_work = clock()
    samples, reports = [], []
    for _ in range(units):
        t0 = clock()
        (rep,) = gradcheck.run_gradcheck(seed=seed, seeds=1)
        samples.append({"units": rep.parameter_count, "seconds": clock() - t0})
        reports.append(rep)
    return first_work, samples, {"max_error": [float(r.max_error) for r in reports],
                                 "parameter_count": [r.parameter_count for r in reports]}


RUNNERS = {"train-qm9": run_train, "train-small": run_train, "infer-qm9": run_infer,
           "gradcheck-tiny": run_gradcheck}


def blas_threads() -> int | str:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads_in_effect": blas_threads()}


def run(args) -> dict:
    clock = time.perf_counter
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
        root = tracer.open("harness.run")
    t0 = clock()
    error = None
    try:
        first_work, samples, outputs = RUNNERS[args.workload](args.seed, Path(args.inputs),
                                                             args.units, clock, tracer)
    except Exception:
        error = traceback.format_exc()
        first_work, samples, outputs = None, [], {}
    work_s = clock() - t0
    result = {"error": error, "samples": samples, "outputs": outputs, "work_s": work_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "environment": environment()}
    if first_work is not None:
        # perf_counter is CLOCK_MONOTONIC, shared by every process on Linux
        result["setup_s"] = first_work - args.spawned / 1e9
    if tracer is not None:
        tracer.close(root)
        if error is None:
            result["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracing.save_spans(tracer, args.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--units", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if Path(ggrnet.__file__).resolve().parent != SRC / "ggrnet":
        print(f"worker: imported ggrnet from {ggrnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.mode == "prepare":
        result = prepare(args.workload, args.seed, Path(args.inputs))
    else:
        result = run(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
