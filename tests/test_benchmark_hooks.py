"""The benchmark's tracer (``perfbench/tracing.py``) wraps package names it
looks up with ``getattr``; a hooked name that is renamed or deleted must fail
here, and not only in a traced benchmark run.

The tracer replaces module attributes for the rest of its process, so it runs
in a subprocess of its own. Nothing under ``perfbench/`` is written.
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


def test_the_benchmark_tracer_traces_a_gradient_check_and_a_training_epoch():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    script = TRACED_RUN.format(perfbench=str(ROOT / "perfbench"))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
