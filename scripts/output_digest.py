#!/usr/bin/env python3
"""Print a sha256 of the model's outputs on fixed generated molecules.

Usage: ``python scripts/output_digest.py SRC_DIR``, where ``SRC_DIR`` holds
the ``ggrnet`` package to test (``src`` of a checkout).

For every configuration (dims 50/50/100/100 and 4/4/8/8, each with all
features on and with each feature switched off, with a 29-row count table;
and dims 4/4/8/8 with all features on and a 6-row count table, whose last
row every molecule of more than 6 atoms uses) and every fixed batch of
generated molecules (1 to 29 atoms), one line gives the configuration, the
batch's atom counts and the sha256 of the no-grad predictions, the recorded
predictions, the loss and every parameter gradient of the mean squared error.
A last line per configuration gives the sha256 of the residuals and the MAE
that ``evaluate`` reports, through a normalizer of mean 1.5 and standard
deviation 0.25, on a dataset of 23 generated molecules (1 to 29 atoms), more
than two of ``evaluate``'s chunks. The last lines give the ``repr`` of each
report of ``run_gradcheck(seed=0, seeds=2)``, once with all features on and
once with the distance feature switched off; the ``repr`` of a float names
its bits. Two source trees whose outputs are bitwise
equal print identical lines, so ``diff`` of two runs compares them. BLAS runs
on one thread, as for a bit-reproducible run; nothing is downloaded or
written.
"""
import hashlib
import os
import sys
from dataclasses import replace

BATCHES = ((1,), (2, 3), (1, 4, 5, 6, 7, 8), (9, 12, 15), (17, 21, 25), (29,), (29, 28, 1, 13))
DIMS = {"default": {}, "small": {"atom_dim": 4, "count_dim": 4, "hidden_dim": 8, "mlp_dim": 8}}
FEATURES = ("all", "use_atom_embedding", "use_count_feature", "use_distance_feature")
# atom counts of the dataset that evaluate runs on: three chunks, the last partial
EVAL_SIZES = (1, 3, 9, 29, 2, 14, 7, 5, 21, 11, 6, 28, 4, 17, 1, 8, 25, 12, 2, 19, 10, 23, 3)
# (dims, feature switched off or "all", count-table rows)
CONFIGS = [(d, f, 29) for d in DIMS for f in FEATURES] + [("small", "all", 6)]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, argv[1])
    import numpy as np
    from ggrnet import Graph, ModelConfig, backward, init_params, mse_loss, zero_grads
    from ggrnet.data import Dataset, Molecule, Normalizer
    from ggrnet.gradcheck import DEFAULT_CHECK_CONFIG, run_gradcheck
    from ggrnet.model import MoleculeEncoding, forward_batch
    from ggrnet.synth import random_molecule
    from ggrnet.training import evaluate

    vocab = ("H", "C", "N", "O", "F")
    rng = np.random.default_rng(1909)
    batches = [[random_molecule(rng, n, vocab, mol_id=f"m{n}") for n in sizes]
               for sizes in BATCHES]
    targets = [rng.normal(size=len(sizes)).tolist() for sizes in BATCHES]
    shapes = [random_molecule(rng, n, vocab) for n in EVAL_SIZES]
    labels = rng.normal(1.5, 0.25, size=len(EVAL_SIZES)).tolist()
    evaluated = Dataset([Molecule(f"e{k}", mol.symbols, mol.coords, {"y": y})
                         for k, (mol, y) in enumerate(zip(shapes, labels))], ["y"], vocab)
    normalizer = Normalizer(mean=1.5, std=0.25)
    for dims_name, feature, rows in CONFIGS:
        switches = {} if feature == "all" else {feature: False}
        cfg = ModelConfig(**DIMS[dims_name], **switches)
        params = init_params(cfg, len(vocab), rows, seed=7)
        tensors = params.tensors()
        for molecules, batch_targets in zip(batches, targets):
            encodings = [MoleculeEncoding(m, vocab, cfg) for m in molecules]
            digest = hashlib.sha256()
            digest.update(forward_batch(None, encodings, params, cfg).values.tobytes())
            zero_grads(tensors)
            graph = Graph()
            preds = forward_batch(graph, encodings, params, cfg)
            loss = mse_loss(graph, preds, batch_targets)
            backward(graph, loss)
            for array in (preds.values, loss.values, *(t.grad for t in tensors)):
                digest.update(np.ascontiguousarray(array).tobytes())
            sizes = ",".join(str(m.natoms) for m in molecules)
            print(f"{dims_name}\t{feature}\t{rows}\t{sizes}\t{digest.hexdigest()}")
        report = evaluate(params, evaluated, normalizer, cfg, vocab, "y", with_residuals=True)
        digest = hashlib.sha256(np.array([*report.residuals, report.mae]).tobytes())
        print(f"{dims_name}\t{feature}\t{rows}\tevaluate:{report.n}\t{digest.hexdigest()}")
    for feature in ("all", "use_distance_feature"):
        switches = {} if feature == "all" else {feature: False}
        for report in run_gradcheck(seed=0, seeds=2, cfg=replace(DEFAULT_CHECK_CONFIG, **switches)):
            print(f"gradcheck\t{feature}\t{report!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
