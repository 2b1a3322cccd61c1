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
and every pre-activation is finite. Last, one line per extended-XYZ input
gives the sha256 of what ``load_dataset`` returns (ids, symbols, coordinate
bytes, targets, property names and units): the bundled ``sample10.xyz``; a
generated file of concatenated records (1 to 29 atoms) that starts with a
byte-order mark and has blank lines between records; and two directories of
per-molecule files, one read with the ``qm9`` schema, whose files end in
QM9-style frequency, SMILES and InChI lines, and one read without a schema,
whose files name no id. One line per malformed input gives the error
``load_dataset`` raises, with the temporary directory's path replaced by a
fixed token. Then, for a 3-epoch ``train`` (dims 4/4/8/8, with
all features on and with each feature switched off) on 30 generated
molecules of ``geometric_dataset``, split 24/3/3, in batches of 7 with the
gradient clipped at norm 1, one line per epoch gives the sha256 of its
``train_mse``, ``val_mae`` and ``grad_norm``, and one line each the sha256
of the best and of the final parameters. Last, the command line runs in
process on 30 generated molecules of ``geometric_dataset``, written as one
extended-XYZ file: ``train --runs 2 --resplit --threads 1`` (dims 4/4/8/8,
6 epochs, batches of 7), whose ``report.json``, each run's ``best.ckpt``,
``final.ckpt`` and ``metrics.jsonl``, and each ``manifest.cfg`` (with the
temporary directory's path replaced by a fixed token) get one line each;
then ``eval --config run1/manifest.cfg``, ``eval --data`` of the file with
residuals, and ``predict`` of it, whose standard output gets one line each;
and a 2-epoch ``train`` at default dims on 13 generated molecules of 9 to 29
atoms, whose training batch holds more recorded grids than
``training.GRID_BUDGET`` and so runs as sub-batches: one line each for its
``final.ckpt`` and ``metrics.jsonl``.
Two source trees whose outputs are bitwise equal, whose overflow checks
decide alike and whose readers read alike print identical lines, so
``diff`` of two runs compares them. BLAS runs on one thread, as for a
bit-reproducible run; nothing is downloaded, and the ingest and command
line inputs and outputs are written to temporary directories that are
removed.
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

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
# atom counts of the generated extended-XYZ records
INGEST_SIZES = (1, 9, 2, 29, 14, 3, 21, 5)


def xyz_record(mol, comment, extra_columns=0):
    """One extended-XYZ record of ``mol`` with the given comment line, its
    coordinates written in full (every third in Mathematica's ``*^`` form)
    and ``extra_columns`` more columns on each atom line."""
    lines = [f"{mol.natoms}", comment]
    for k, (sym, xyz) in enumerate(zip(mol.symbols, mol.coords)):
        values = [f"{v:.17e}".replace("e", "*^") if (3 * k + i) % 3 == 2 else repr(float(v))
                  for i, v in enumerate(xyz)]
        lines.append("\t".join([sym, *values, *["0.125"] * extra_columns]))
    return "\n".join(lines) + "\n"


def ingest_inputs(root, molecules, rng):
    """Write the ingest inputs under ``root``; return the ``(name, path,
    builtin schema or None)`` of the readable ones, then of the malformed
    ones, which are read with the ``sample`` schema."""
    records = [xyz_record(mol, f"{mol.mol_id} {rng.normal()!r} {mol.natoms}")
               for mol in molecules]
    qm9, noid = root / "qm9", root / "noid"
    qm9.mkdir()
    noid.mkdir()
    for k, mol in enumerate(molecules):
        props = "\t".join(repr(float(v)) for v in rng.normal(size=15))
        trailer = (" ".join(f"{v:.4f}" for v in rng.uniform(100, 4000, size=3)) + "\n"
                   + "C[C@H]O\tC[C@@H]O\nInChI=1S/C2H6O\tInChI=1S/C2H6O/c1-2\n")
        (qm9 / f"dsgdb9nsd_{k:06d}.xyz").write_text(
            xyz_record(mol, f"gdb {k + 1}\t{props}", extra_columns=1) + trailer)
        (noid / f"m{k}.xyz").write_text(xyz_record(mol, "") + trailer)

    def concatenated(record=None, line=None, replacement=None):
        """The records joined by blank lines, after a byte-order mark, with
        line ``line`` of record ``record`` replaced (``None``: dropped)."""
        edited = [r.splitlines(keepends=True) for r in records]
        if record is not None:
            edited[record][line] = replacement or ""
        return "\ufeff".encode() + "\n \t\n".join(map("".join, edited)).encode()

    files = {"concat.xyz": concatenated(),
             "truncated.xyz": concatenated(-1, -1),
             "unknown-element.xyz": concatenated(2, 3, "Xx 0 0 0\n"),
             "bad-count.xyz": concatenated(4, 0, "fourteen\n"),
             "bad-coordinate.xyz": concatenated(3, 5, "C 0 zero 0\n"),
             "not-utf8.xyz": concatenated(5, 3, "C 0 0 0\n").replace(b"C 0 0", b"C 0 \xff"),
             "blank.xyz": b"\n \n\t\n",
             "dir-bad-file/a.xyz": records[0].encode(),
             "dir-bad-file/b.xyz": b"1\nb 1 1\nC 0 0 zz\n",
             "dir-unreadable/a.xyz": records[0].encode()}
    for name, body in files.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_bytes(body)
    # a directory named like a molecule file, which cannot be read as one
    (root / "dir-unreadable" / "c.xyz").mkdir()
    readable = [("concat", root / "concat.xyz", "sample"), ("qm9-dir", qm9, "qm9"),
                ("noid-dir", noid, None)]
    malformed = [(name, root / (name + ".xyz"))
                 for name in ("truncated", "unknown-element", "bad-count", "bad-coordinate",
                              "not-utf8", "blank")]
    return readable, malformed + [(name, root / name)
                                  for name in ("dir-bad-file", "dir-unreadable")]


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
    from ggrnet.data import (CommentSchema, Dataset, Molecule, Normalizer, SplitSpec,
                             load_dataset, sample_dataset_path, split)
    from ggrnet.errors import GgrnetError, NumericalError
    from ggrnet.gradcheck import DEFAULT_CHECK_CONFIG, run_gradcheck
    from ggrnet.model import MoleculeEncoding, forward_batch
    from ggrnet.synth import geometric_dataset, random_molecule
    from ggrnet.training import TrainConfig, evaluate, train

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

    def dataset_digest(ds):
        digest = hashlib.sha256(repr((ds.property_names, sorted(ds.units.items()))).encode())
        for mol in ds:
            digest.update(repr((mol.mol_id, mol.symbols)).encode())
            digest.update(mol.coords.tobytes())
            digest.update(np.array([mol.targets[p] for p in ds.property_names]).tobytes())
        return f"{len(ds)}\t{digest.hexdigest()}"

    ingest_rng = np.random.default_rng(1931)
    molecules = [random_molecule(ingest_rng, n, vocab, mol_id=f"x{k}")
                 for k, n in enumerate(INGEST_SIZES)]
    print(f"ingest\tsample10\t"
          f"{dataset_digest(load_dataset(sample_dataset_path(), schema=CommentSchema.builtin('sample')))}")
    with tempfile.TemporaryDirectory() as tmp:
        readable, malformed = ingest_inputs(Path(tmp), molecules, ingest_rng)
        for name, path, schema in readable:
            schema = schema and CommentSchema.builtin(schema)
            print(f"ingest\t{name}\t{dataset_digest(load_dataset(path, 'xyz', schema, vocab))}")
        for name, path in malformed:
            try:
                load_dataset(path, "xyz", CommentSchema.builtin("sample"), vocab)
                print(f"ingest-error\t{name}\tloaded")
            except GgrnetError as err:
                print(f"ingest-error\t{name}\t{type(err).__name__}: "
                      f"{str(err).replace(tmp, 'TMP')}")

    train_ds, val_ds, _ = split(geometric_dataset(30, seed=1949), SplitSpec(seed=3))
    for feature in FEATURES:
        switches = {} if feature == "all" else {feature: False}
        cfg = TrainConfig(target_property="energy", lr0=0.05, epochs=3, batch_size=7,
                          clip_norm=1.0, seed=5, model=ModelConfig(**SMALL, **switches))
        result = train(train_ds, val_ds, cfg)
        for rep in result.reports:
            digest = hashlib.sha256(np.array([rep.train_mse, rep.val_mae, rep.grad_norm]))
            print(f"train\t{feature}\tepoch {rep.epoch}\t{digest.hexdigest()}")
        for name, params in (("best", result.best_params), ("final", result.final_params)):
            digest = hashlib.sha256()
            for tensor in params.tensors():
                digest.update(tensor.values.tobytes())
            print(f"train\t{feature}\t{name} params\t{digest.hexdigest()}")

    from ggrnet.cli import main as cli_main

    def command(*argv):
        """The standard output of the command line ``argv``, which must succeed."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert cli_main([str(arg) for arg in argv]) == 0, argv
        return stdout.getvalue()

    def sha(data):
        return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        molecules = root / "molecules.xyz"
        molecules.write_text("".join(xyz_record(mol, f"{mol.mol_id} {mol.targets['energy']!r} "
                                                     f"{mol.natoms}")
                                     for mol in geometric_dataset(30, seed=1951)))
        (root / "run.cfg").write_text(
            f"dataset.path = {molecules}\ndataset.schema = builtin:sample\n"
            "dataset.elements = H,C,N,O\ntarget = energy\nsplit.seed = 3\n"
            + "".join(f"model.{key} = {value}\n" for key, value in SMALL.items())
            + "train.epochs = 6\ntrain.batch_size = 7\ntrain.seed = 5\n")
        out = root / "out"
        command("train", "--config", root / "run.cfg", "--out", out, "--runs", "2",
                "--resplit", "--threads", "1")
        print(f"cli\ttrain\treport.json\t{sha((out / 'report.json').read_bytes())}")
        for name in ("manifest.cfg", "run0/manifest.cfg", "run1/manifest.cfg"):
            print(f"cli\ttrain\t{name}\t{sha((out / name).read_text().replace(tmp, 'TMP'))}")
        for run in ("run0", "run1"):
            for name in ("best.ckpt", "final.ckpt", "metrics.jsonl"):
                print(f"cli\ttrain\t{run}/{name}\t{sha((out / run / name).read_bytes())}")
        ckpt = out / "run1" / "best.ckpt"
        outputs = {"eval --config": command("eval", ckpt, "--config", out / "run1" / "manifest.cfg"),
                   "eval --data": command("eval", ckpt, "--data", molecules, "--schema",
                                          "builtin:sample", "--residuals"),
                   "predict": command("predict", ckpt, molecules, "--schema", "builtin:sample")}
        for name, stdout in outputs.items():
            print(f"cli\t{name}\tstdout\t{sha(stdout)}")

        # default dims, QM9-sized molecules: batches larger than the grid budget
        (root / "large.xyz").write_text(
            "".join(xyz_record(mol, f"{mol.mol_id} {mol.targets['energy']!r} {mol.natoms}")
                    for mol in geometric_dataset(13, seed=1953, n_atoms=(9, 29))))
        (root / "large.cfg").write_text(
            f"dataset.path = {root / 'large.xyz'}\ndataset.schema = builtin:sample\n"
            "dataset.elements = H,C,N,O\ntarget = energy\ntrain.epochs = 2\n")
        command("train", "--config", root / "large.cfg", "--out", root / "large", "--threads", "1")
        for name in ("final.ckpt", "metrics.jsonl"):
            print(f"cli\ttrain default dims\t{name}\t{sha((root / 'large' / name).read_bytes())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
