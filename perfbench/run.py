"""Benchmark of ggrnet: training, inference and gradient checking on synthetic molecules.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every input is generated from ``--seed`` and
written to a temporary directory inside the checkout, which is removed at
the end. The work runs in worker processes (``worker.py``) started with one
BLAS thread, ``PYTHONPATH`` set to the checkout's ``src/`` and no bytecode
writing, one after another, never two at once. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.

Untraced, workers each set up once and then do a fixed amount of work; they
are started until ``--seconds`` is used, and at least three are. Traced, one
untraced worker and then one traced worker do the same work, and the
difference in their wall time is the tracing overhead. A full record of the
run, and the spans of a traced run, are written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# work per worker: epochs (train), load+evaluate passes (infer), gradient checks
UNITS = {"train-qm9": 3, "train-small": 8, "infer-qm9": 10, "gradcheck-tiny": 2}
# a traced gradient check records ~210k spans, so the traced run does one
TRACED_UNITS = {**UNITS, "gradcheck-tiny": 1}
UNIT_NAMES = {"train-qm9": ("train_mol_per_s", "mol/s", "epochs"),
              "train-small": ("train_mol_per_s", "mol/s", "epochs"),
              "infer-qm9": ("predict_mol_per_s", "mol/s", "passes"),
              "gradcheck-tiny": ("gradcheck_entries_per_s", "entries/s", "checks")}
MIN_WORKERS = 3
WORKER_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Tolerances against the outputs pinned in reference.json:
# - predictions: the oracle tolerance of the ROADMAP, relative to max(1, |ref|);
# - per-epoch train_mse/val_mae: a reordered float sum changes a forward pass
#   by ~1e-15 relative, and up to eight epochs of clipped SGD at lr 0.03 keep
#   that far below 1e-6, while a wrong gradient moves these figures at the
#   1e-2 level;
# - gradcheck max_error: its floor is finite-difference rounding (~1e-11 for
#   a loss of order 1 and step 1e-5); 1e-9 allows reordered sums and stays
#   five decades under the 1e-4 pass mark.
PREDICTION_TOL = 1e-10
TRAIN_TOL = 1e-6
GRADCHECK_TOL = 1e-9
GRADCHECK_PASS = 1e-4


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def worker(mode: str, workload: str, seed: int, inputs: Path, extra=()) -> dict:
    out = inputs / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--inputs", str(inputs), "--out", str(out),
           *extra]
    spawned = time.perf_counter_ns()
    if mode == "run":
        cmd += ["--spawned", str(spawned)]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def git_sha() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(workers: list[dict]) -> dict:
    env = {"git_sha": git_sha(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
           "thread_vars_set": {var: "1" for var in THREAD_VARS},
           "thread_vars_inherited": {var: os.environ.get(var) for var in THREAD_VARS}}
    env.update(workers[0]["environment"])
    return env


# -- correctness


def check_outputs(workload: str, seed: int, workers: list[dict], reference: dict,
                  units: int, molecules: int = 0):
    """(name, ok) for every checked output of every worker.

    ``units`` is the number of epochs, passes or checks each worker was asked
    for, and ``molecules`` the number in the file an inference pass reads.
    """
    checks = []
    pinned = reference.get(workload, {}).get(str(seed))
    first = next((res["outputs"] for res in workers if res["error"] is None), None)
    for w, res in enumerate(workers):
        if res["error"] is not None:
            checks.append((f"worker {w} raised: {res['error'].strip().splitlines()[-1]}", False))
            continue
        out = res["outputs"]
        done = len(out["train_mse" if workload.startswith("train") else
                       "predictions" if workload == "infer-qm9" else "max_error"])
        checks.append((f"worker {w} did {done} of {units} units", done == units))
        if workload.startswith("train"):
            checks.append((f"worker {w} one val_mae per epoch",
                           len(out["val_mae"]) == len(out["train_mse"])))
            if pinned is not None:
                checks.append((f"worker {w} as many epochs as pinned",
                               len(out["train_mse"]) == len(pinned["train_mse"])))
            for e, (mse, mae) in enumerate(zip(out["train_mse"], out["val_mae"])):
                checks.append((f"worker {w} epoch {e} finite",
                               math.isfinite(mse) and math.isfinite(mae)))
                if pinned is not None and e < len(pinned["train_mse"]):
                    checks.append((f"worker {w} epoch {e} train_mse pinned",
                                   _close(mse, pinned["train_mse"][e], TRAIN_TOL)))
                    checks.append((f"worker {w} epoch {e} val_mae pinned",
                                   _close(mae, pinned["val_mae"][e], TRAIN_TOL)))
                checks.append((f"worker {w} epoch {e} same as the first worker",
                               e < len(first["train_mse"]) and
                               (mse, mae) == (first["train_mse"][e], first["val_mae"][e])))
            checks.append((f"worker {w} checkpoint round trip", out["checkpoint_round_trip"]))
        elif workload == "infer-qm9":
            for p, preds in enumerate(out["predictions"]):
                checks.append((f"worker {w} pass {p} predicts {len(preds)} of {molecules} "
                               "molecules", len(preds) == molecules))
                if pinned is not None:
                    checks.append((f"worker {w} pass {p} as many predictions as pinned",
                                   len(preds) == len(pinned["predictions"])))
                for i, value in enumerate(preds):
                    checks.append((f"worker {w} pass {p} molecule {i} finite",
                                   math.isfinite(value)))
                    if pinned is not None and i < len(pinned["predictions"]):
                        ref = pinned["predictions"][i]
                        checks.append((f"worker {w} pass {p} molecule {i} pinned",
                                       abs(value - ref) <= PREDICTION_TOL * max(1.0, abs(ref))))
                checks.append((f"worker {w} pass {p} same as the first worker's pass 0",
                               [preds] == first["predictions"][:1]))
        else:
            for r, (err, count) in enumerate(zip(out["max_error"], out["parameter_count"])):
                checks.append((f"worker {w} check {r} max_error < {GRADCHECK_PASS}",
                               err < GRADCHECK_PASS))
                if pinned is not None:
                    checks.append((f"worker {w} check {r} max_error pinned",
                                   abs(err - pinned["max_error"]) <= GRADCHECK_TOL))
                    checks.append((f"worker {w} check {r} parameter_count pinned",
                                   count == pinned["parameter_count"]))
                checks.append((f"worker {w} check {r} same as the first worker",
                               [(err, count)] == list(zip(first["max_error"][:1],
                                                          first["parameter_count"][:1]))))
    return checks


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(abs(ref), 1e-300)


# -- metrics


def end_to_end(workers: list[dict]) -> dict:
    samples = [s for res in workers for s in res["samples"]]
    rates = [s["units"] / s["seconds"] for s in samples]
    return {"setup_s": statistics.median(res["setup_s"] for res in workers),
            "work_per_s": sum(s["units"] for s in samples) / sum(s["seconds"] for s in samples),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in workers),
            "fastest_unit_per_s": max(rates), "median_unit_per_s": statistics.median(rates)}


def measure(workload: str, seed: int, seconds: float, inputs: Path) -> list[dict]:
    workers = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        workers.append(worker("run", workload, seed, inputs,
                              ["--units", str(UNITS[workload]), "--trace", "0"]))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - started
        if elapsed + took > RUN_DEADLINE_S:
            break
        if len(workers) >= MIN_WORKERS and elapsed + took > seconds:
            break
    return workers


def measure_traced(workload: str, seed: int, inputs: Path, spans: Path) -> list[dict]:
    units = ["--units", str(TRACED_UNITS[workload])]
    plain = worker("run", workload, seed, inputs, units + ["--trace", "0"])
    traced = worker("run", workload, seed, inputs,
                    units + ["--trace", "1", "--spans", str(spans)])
    return [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ggrnet" / "__init__.py").is_file():
        print(f"run.py: no ggrnet package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        prepared = worker("prepare", args.workload, args.seed, inputs)
        if args.trace:
            workers = measure_traced(args.workload, args.seed, inputs,
                                     out_dir / f"{tag}-spans.npz")
        else:
            workers = measure(args.workload, args.seed, args.seconds, inputs)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        if not any(tmp_parent.iterdir()):
            tmp_parent.rmdir()

    units = (TRACED_UNITS if args.trace else UNITS)[args.workload]
    checks = check_outputs(args.workload, args.seed, workers, reference, units,
                           prepared["molecules"].get("data", 0))
    failed = [name for name, ok in checks if not ok]
    for name in failed[:20]:
        print(f"FAILED {name}", file=sys.stderr)
    for res in workers:
        if res["error"] is not None:
            print(res["error"], file=sys.stderr)
    finished = [res for res in workers if res["error"] is None]
    if len(finished) < (2 if args.trace else 1):
        print("run.py: too few workers finished to give metrics", file=sys.stderr)
        return 1

    if args.trace:
        plain, traced = workers
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = traced["work_s"] / plain["work_s"] - 1.0
        listed = spec["per_layer"]
    else:
        values = end_to_end(finished)
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    env = environment(finished)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": prepared,
              "workers": [{k: v for k, v in res.items() if k != "outputs"} for res in workers],
              "values": values, "metrics": metrics, "attempted": len(checks), "failed": failed,
              "pinned": str(args.seed) in reference.get(args.workload, {})}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("environment " + json.dumps(env, sort_keys=True))
    if not record["pinned"]:
        print(f"note: seed {args.seed} has no pinned outputs in reference.json; "
              "outputs checked for finiteness, agreement between workers and the "
              "gradcheck bound only")
    if not args.trace:
        name, unit, what = UNIT_NAMES[args.workload]
        samples = sum(len(res["samples"]) for res in finished)
        print(f"{name} = {values['work_per_s']:.6g} {unit} ({samples} {what} over "
              f"{len(finished)} processes; per unit: fastest "
              f"{values['fastest_unit_per_s']:.6g}, median {values['median_unit_per_s']:.6g})")
        print(f"setup_s = {values['setup_s']:.6g} s (median of {len(finished)} processes)")
        print(f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB (median of {len(finished)} "
              "processes)")
    else:
        for m in listed:
            print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"failed_frac = {len(failed) / len(checks):.6g} ({len(failed)} of {len(checks)} "
          "checked outputs)")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
