"""The benchmark (``perfbench/``) runs the package through names it looks up
itself, and checks the outputs of its workers against the outputs pinned in
``perfbench/reference.json``. A hooked name that is renamed or deleted, a
worker that crashes or a pinned output that moves must fail here, and not
only in a benchmark run.

The tracer replaces module attributes for the rest of its process, so each
test runs in a subprocess of its own. Nothing under ``perfbench/`` is written.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import sys
sys.path.insert(0, {perfbench!r})
import tracing
from ggrnet import gradcheck, model, synth, training

tracer = tracing.Tracer()
tracing.install(tracer)
(report,) = gradcheck.run_gradcheck(seed=0, seeds=1)
assert report.max_error < 1e-4, report
ds = synth.geometric_dataset(8, seed=0, n_atoms=(2, 4), property_name="e")
cfg = training.TrainConfig(target_property="e", epochs=1, batch_size=4,
                           model=model.ModelConfig(atom_dim=3, count_dim=2, hidden_dim=4,
                                                   mlp_dim=4, steps=2))
training.train(ds, ds, cfg)
for name in ("gradcheck.gradient_check", "training.train", "training.step",
             "training.mse_loss", "autodiff.backward"):
    assert name in tracer.names, name
tracing.layer_metrics(tracer)
"""


# every workload once, as a benchmark worker runs it (seed 0, the benchmark's
# units of work), each output checked as the benchmark checks it
CHECKED_RUN = """
import argparse
import json
import sys
from pathlib import Path
perfbench, tmp = sys.argv[1:]
sys.path.insert(0, perfbench)
import run
import worker

reference = json.loads(Path(perfbench, "reference.json").read_text(encoding="utf-8"))
failed, attempted = [], 0
for workload, units in run.UNITS.items():
    inputs = Path(tmp, workload)
    inputs.mkdir()
    prepared = worker.prepare(workload, 0, inputs)
    result = worker.run(argparse.Namespace(workload=workload, seed=0, inputs=str(inputs),
                                           units=units, trace=0, spawned=0, spans=None))
    checks = run.check_outputs(workload, 0, [result], reference, units,
                               prepared["molecules"].get("data", 0))
    assert checks, workload
    attempted += len(checks)
    failed += [f"{workload}: {name}" for name, ok in checks if not ok]
assert not failed, f"{len(failed)} of {attempted} checks failed, first: {failed[:10]}"
print(f"{attempted} checks passed")
"""


def run_in_subprocess(script: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_the_benchmark_tracer_traces_a_gradient_check_and_a_training_epoch():
    result = run_in_subprocess(TRACED_RUN.format(perfbench=str(ROOT / "perfbench")))
    assert result.returncode == 0, result.stderr


def test_every_benchmark_workload_gives_its_pinned_outputs(tmp_path):
    result = run_in_subprocess(CHECKED_RUN, str(ROOT / "perfbench"), str(tmp_path))
    assert result.returncode == 0, result.stderr
