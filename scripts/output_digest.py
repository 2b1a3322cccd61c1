#!/usr/bin/env python3
"""Print a sha256 of the model's outputs on fixed generated molecules.

Usage: ``python scripts/output_digest.py SRC_DIR``, where ``SRC_DIR`` holds
the ``ggrnet`` package to test (``src`` of a checkout).

For every configuration (dims 50/50/100/100 and 4/4/8/8, each with all
features on and with each feature switched off, with a 29-row count table;
dims 4/4/8/8 with all features on and a 6-row count table, whose last row
every molecule of more than 6 atoms uses; and dims 4/4/8/8 with all
features on, a 29-row count table and 1 or 2 recursion steps, fewer than
the recursion's three forward-only blocks) and every fixed batch of
generated molecules (1 to 29 atoms), one line gives the configuration, the
batch's atom counts and the sha256 of the no-grad predictions, the recorded
predictions, the loss and every parameter gradient of the mean squared error.
A last line per configuration gives the sha256 of the residuals and the MAE
that ``evaluate`` reports, through a normalizer of mean 1.5 and standard
deviation 0.25, on a dataset of 23 generated molecules (1 to 29 atoms), more
than two of ``evaluate``'s chunks. The last lines give the ``repr`` of each
report of ``run_gradcheck(seed=0, seeds=2)``, with all features on and with
each feature switched off, and of the same check with ``corrupt=True`` (the
negative control, all features on); the ``repr`` of a float names its bits.
Then, for each of a fixed set of parameter edits that overflow, or come
close to it (dims 4/4/8/8, all features on, one batch of 1, 4, 2 and 6
atoms), three lines give the outcome of a no-grad forward, of a recorded
forward with the loss's backward, and of a no-grad forward of the replicas
``[unedited, edited]`` of the first tensor edited: the ``NumericalError``
message, or ``ok`` and the sha256 of the outputs. The last case, after
eight that overflow or come close to it, sets one molecule's receiver terms
to 0.6x the float maximum and every sender term to -0.6x it, so every term
and every pre-activation is finite. Two source trees whose
outputs are bitwise equal, and whose overflow checks decide alike, print
identical lines, so ``diff`` of two runs compares them. BLAS runs on one
thread, as for a bit-reproducible run; nothing is downloaded or written.
"""
import hashlib
import os
import sys
from dataclasses import replace

BATCHES = ((1,), (2, 3), (1, 4, 5, 6, 7, 8), (9, 12, 15), (17, 21, 25), (29,), (29, 28, 1, 13))
SMALL = {"atom_dim": 4, "count_dim": 4, "hidden_dim": 8, "mlp_dim": 8}
DIMS = {"default": {}, "small": SMALL,
        "small-1-step": {**SMALL, "steps": 1}, "small-2-steps": {**SMALL, "steps": 2}}
FEATURES = ("all", "use_atom_embedding", "use_count_feature", "use_distance_feature")
# atom counts of the dataset that evaluate runs on: three chunks, the last partial
EVAL_SIZES = (1, 3, 9, 29, 2, 14, 7, 5, 21, 11, 6, 28, 4, 17, 1, 8, 25, 12, 2, 19, 10, 23, 3)
# (dims, feature switched off or "all", count-table rows)
CONFIGS = ([(d, f, 29) for d in ("default", "small") for f in FEATURES]
           + [("small", "all", 6), ("small-1-step", "all", 29), ("small-2-steps", "all", 29)])
# atom counts of the batch that the overflow cases run
OVERFLOW_SIZES = (1, 4, 2, 6)


def overflow_cases(cfg, big):
    """(name, edits): each edit writes ``value`` at ``index`` of a tensor."""
    half = cfg.atom_dim + cfg.hidden_dim
    hid = list(range(cfg.atom_dim, half)) + list(range(half + cfg.atom_dim, 2 * half))
    cnt = slice(2 * half, 2 * half + cfg.count_dim)
    return [
        # every molecule with pairs overflows in step 0
        ("gate", [("gate_weight", slice(None), 1e308), ("atom_embedding", slice(None), 1.0)]),
        # the state starts at zero, so only step 1 overflows
        ("late-step", [("gate_weight", (slice(None), hid), 1e308),
                       ("gate_bias", slice(None), 3.0), ("candidate_bias", slice(None), 3.0)]),
        # only molecules with a pair closer than 1 overflow: the 6-atom one
        ("distance", [("gate_weight", (slice(None), -1), big)]),
        # the one-atom molecule's terms are inf or NaN, and it has no pairs
        ("lone-inf", [("count_embedding", 0, 1e308), ("gate_weight", (slice(None), cnt), 1.0)]),
        ("lone-nan", [("count_embedding", 0, float("nan"))]),
        # the 4-atom molecule's receiver terms are 0.6x the float maximum
        ("receiver", [("count_embedding", 3, 0.0), ("count_embedding", (3, 0), 0.6 * big),
                      ("gate_weight", (slice(None), cnt), 0.0),
                      ("gate_weight", (slice(None), cnt.start), 1.0)]),
        ("bias-nan", [("candidate_bias", 0, float("nan"))]),
        ("readout", [("readout_w0", 0, 1e308)]),
        # the 4-atom molecule's receiver terms are 0.6x the float maximum, and
        # every sender term is -0.6x it: each term is finite, and so is their sum
        ("cancel", [("count_embedding", 3, 0.0), ("count_embedding", (3, 0), 0.6 * big),
                    ("gate_weight", (slice(None), cnt), 0.0),
                    ("gate_weight", (slice(None), cnt.start), 1.0),
                    ("atom_embedding", (slice(None), 0), 1.0),
                    ("gate_weight", (slice(None), half), -0.6 * big)]),
    ]


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
    from ggrnet.errors import NumericalError
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

    def recorded(params, cfg, encodings, batch_targets):
        """The recorded predictions, the loss and every parameter gradient of the loss."""
        tensors = params.tensors()
        zero_grads(tensors)
        graph = Graph()
        preds = forward_batch(graph, encodings, params, cfg)
        loss = mse_loss(graph, preds, batch_targets)
        backward(graph, loss)
        return [preds.values, loss.values, *(t.grad for t in tensors)]

    for dims_name, feature, rows in CONFIGS:
        switches = {} if feature == "all" else {feature: False}
        cfg = ModelConfig(**DIMS[dims_name], **switches)
        params = init_params(cfg, len(vocab), rows, seed=7)
        for molecules, batch_targets in zip(batches, targets):
            encodings = [MoleculeEncoding(m, vocab, cfg) for m in molecules]
            digest = hashlib.sha256()
            digest.update(forward_batch(None, encodings, params, cfg).values.tobytes())
            for array in recorded(params, cfg, encodings, batch_targets):
                digest.update(np.ascontiguousarray(array).tobytes())
            sizes = ",".join(str(m.natoms) for m in molecules)
            print(f"{dims_name}\t{feature}\t{rows}\t{sizes}\t{digest.hexdigest()}")
        report = evaluate(params, evaluated, normalizer, cfg, vocab, "y", with_residuals=True)
        digest = hashlib.sha256(np.array([*report.residuals, report.mae]).tobytes())
        print(f"{dims_name}\t{feature}\t{rows}\tevaluate:{report.n}\t{digest.hexdigest()}")
    for feature in FEATURES:
        switches = {} if feature == "all" else {feature: False}
        for report in run_gradcheck(seed=0, seeds=2, cfg=replace(DEFAULT_CHECK_CONFIG, **switches)):
            print(f"gradcheck\t{feature}\t{report!r}")
    for report in run_gradcheck(seed=0, seeds=2, corrupt=True):
        print(f"gradcheck\tall\tcorrupt\t{report!r}")

    cfg = ModelConfig(**DIMS["small"])
    overflow_rng = np.random.default_rng(1919)
    encodings = [MoleculeEncoding(random_molecule(overflow_rng, n, vocab, mol_id=f"o{k}"),
                                  vocab, cfg) for k, n in enumerate(OVERFLOW_SIZES)]
    batch_targets = overflow_rng.normal(size=len(OVERFLOW_SIZES)).tolist()

    def outcome(run):
        try:
            arrays = run()
        except NumericalError as err:
            return str(err)
        digest = hashlib.sha256()
        for array in arrays:
            digest.update(np.ascontiguousarray(array).tobytes())
        return f"ok {digest.hexdigest()}"

    with np.errstate(all="ignore"):
        for name, edits in overflow_cases(cfg, np.finfo(float).max):
            params = init_params(cfg, len(vocab), 29, seed=7)
            tensors = dict(params.named())
            first = edits[0][0]
            unedited = tensors[first].values.copy()
            for tensor, index, value in edits:
                tensors[tensor].values[index] = value
            stack = np.stack([unedited, tensors[first].values])
            runs = {"nograd": lambda: [forward_batch(None, encodings, params, cfg).values],
                    "recorded": lambda: recorded(params, cfg, encodings, batch_targets),
                    "replicated": lambda: [forward_batch(None, encodings, params, cfg,
                                                         replicas=(first, stack)).values]}
            for mode, run in runs.items():
                print(f"overflow\t{name}\t{mode}\t{outcome(run)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
