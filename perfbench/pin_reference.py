"""Pin the outputs that ``run.py`` checks, for a range of seeds.

    python3 perfbench/pin_reference.py

Runs one untraced worker per workload and seed (seeds 0 to 63, one worker
per CPU at a time), with the same inputs and settings ``run.py`` uses, and
writes what it computes to ``perfbench/reference.json``: per-epoch ``train_mse`` and ``val_mae`` for
the training workloads, every prediction for ``infer-qm9``, and
``max_error`` and ``parameter_count`` for ``gradcheck-tiny``. Run it only
on a commit whose outputs are trusted; ``selftest.py`` compares some of the
pinned predictions with the pure-Python oracle in ``tests/oracle.py``.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402

SEEDS = 64


def pin(workload: str, seed: int) -> dict:
    tmp_parent = run.ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"pin-{workload}-", dir=tmp_parent))
    try:
        run.worker("prepare", workload, seed, inputs)
        units = run.UNITS[workload] if workload.startswith("train") else 1
        res = run.worker("run", workload, seed, inputs, ["--units", str(units)])
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if res["error"] is not None:
        raise run.BenchError(f"{workload} seed {seed}: {res['error']}")
    out = res["outputs"]
    if workload.startswith("train"):
        return {"train_mse": out["train_mse"], "val_mae": out["val_mae"]}
    if workload == "infer-qm9":
        return {"predictions": out["predictions"][0]}
    return {"max_error": out["max_error"][0], "parameter_count": out["parameter_count"][0]}


def main() -> int:
    jobs = [(w, s) for w in run.UNITS for s in range(SEEDS)]
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        results = list(pool.map(lambda job: pin(*job), jobs))
    reference = {w: {} for w in run.UNITS}
    for (w, s), value in zip(jobs, results):
        reference[w][str(s)] = value
    if not any((run.ROOT / ".perfbench_tmp").iterdir()):
        (run.ROOT / ".perfbench_tmp").rmdir()
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(jobs)} workload runs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
