"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its headline numbers once its
assertions hold; pytest itself marks failures. The two training-based
criteria (overfit smoke, ablation direction) dominate the runtime.
"""
import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ggrnet.cli import main
from ggrnet.data import Molecule, SplitSpec, fit_normalizer, split
from ggrnet.gradcheck import run_gradcheck
from ggrnet.model import ModelConfig, MoleculeEncoding, forward, forward_batch, init_params
from ggrnet.synth import geometric_dataset, random_molecule, random_molecules
from ggrnet.training import TrainConfig, lr_at_epoch, run_ablation, train
import ggrnet.autodiff as ad
from oracle import straightline_forward

VOCAB = ("H", "C", "N", "O")
REPO = Path(__file__).resolve().parent.parent


def announce(num, title, detail):
    print(f"PASS criterion {num} ({title}): {detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.perf_counter()
    rc = main(["gradcheck", "--seeds", "5", "--atoms", "1,2,4,6",
               "--atom-dim", "4", "--count-dim", "4", "--hidden-dim", "8",
               "--steps", "3", "--fd-step", "1e-5", "--threshold", "1e-4"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0, out
    # same check through the library surface, to report the actual number
    reports = run_gradcheck(seed=0, seeds=5, atom_counts=(1, 2, 4, 6))
    worst = max(r.max_error for r in reports)
    assert worst < 1e-4
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
    with capsys.disabled():
        announce(1, "gradient correctness",
                 f"5 seeds, max relative error {worst:.2e} < 1e-4, {elapsed:.1f}s")


def test_criterion_2_symmetry_suite(capsys):
    cfg = ModelConfig(atom_dim=6, count_dim=4, hidden_dim=10, mlp_dim=8, steps=3)
    nodist = ModelConfig(atom_dim=6, count_dim=4, hidden_dim=10, mlp_dim=8, steps=3,
                         use_distance_feature=False)
    params = init_params(cfg, len(VOCAB), 6, seed=123)
    rng = np.random.default_rng(2024)
    molecules = random_molecules(777, 100, size_range=(1, 6), elements=VOCAB)

    def predictions(mols, model_cfg):
        # a molecule's prediction has the same bits in any batch, so the
        # molecules run through forward_batch in chunks
        encodings = [MoleculeEncoding(m, VOCAB, model_cfg) for m in mols]
        return np.concatenate([forward_batch(None, encodings[i:i + 120], params,
                                             model_cfg).values[0]
                               for i in range(0, len(encodings), 120)])

    worst_perm = 0.0
    worst_rigid = 0.0
    for mol in molecules:
        shuffled = [Molecule(mol.mol_id, tuple(mol.symbols[i] for i in perm),
                             mol.coords[list(perm)], {})
                    for perm in itertools.permutations(range(mol.natoms))]
        moved = []
        for _ in range(20):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q *= np.sign(np.diag(r))
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            moved.append(Molecule(mol.mol_id, mol.symbols,
                                  mol.coords @ q.T + rng.uniform(-10, 10, 3), {}))
        scrambled = Molecule(mol.mol_id, mol.symbols,
                             rng.uniform(-50, 50, mol.coords.shape), {})
        preds = predictions([mol, *shuffled, *moved], cfg)
        base, perm_preds, rigid_preds = preds[0], preds[1:-20], preds[-20:]
        worst_perm = max(worst_perm, float(np.abs(perm_preds - base).max()))
        worst_rigid = max(worst_rigid, float(np.abs(rigid_preds - base).max()))
        base_nd, scrambled_nd = predictions([mol, scrambled], nodist)
        assert scrambled_nd == base_nd
        # a fixed sample of the batched predictions has the bits of one-by-one calls
        for got, one, model_cfg in ((base, mol, cfg), (perm_preds[-1], shuffled[-1], cfg),
                                    (rigid_preds[0], moved[0], cfg),
                                    (scrambled_nd, scrambled, nodist)):
            alone = forward(None, one, params, model_cfg, VOCAB).values[0, 0]
            assert got.tobytes() == alone.tobytes()

    assert worst_perm < 1e-9, worst_perm
    assert worst_rigid < 1e-9, worst_rigid
    with capsys.disabled():
        announce(2, "symmetry suite",
                 f"100 molecules: permutations {worst_perm:.2e}, "
                 f"rigid motions {worst_rigid:.2e}, no-distance deltas exactly 0")


def test_criterion_3_oracle_equivalence(capsys):
    cfg = ModelConfig(atom_dim=5, count_dim=4, hidden_dim=6, mlp_dim=6, steps=3)
    params = init_params(cfg, len(VOCAB), 8, seed=321)
    rng = np.random.default_rng(31337)
    worst = 0.0
    for k in range(50):
        mol = random_molecule(rng, int(rng.integers(1, 9)), elements=VOCAB,
                              mol_id=f"o{k}")
        got = forward(None, mol, params, cfg, VOCAB).item()
        want = straightline_forward(mol, params, cfg, VOCAB)
        worst = max(worst, abs(got - want))
    assert worst < 1e-10, worst
    with capsys.disabled():
        announce(3, "oracle equivalence",
                 f"50 molecules, max |vectorized - straight-line| = {worst:.2e} < 1e-10")


def test_criterion_4_protocol_exactness(capsys):
    # learning-rate schedule, exact
    for lr0, decay, epochs in ((0.03, 0.01, 500), (0.01, 0.05, 200)):
        for e in range(epochs + 1):
            assert lr_at_epoch(lr0, decay, e) == lr0 / (1.0 + decay * e)

    # split sizes for |D| = 1000
    mols = [Molecule(f"m{i}", ("C",), np.zeros((1, 3)), {"y": float(i)})
            for i in range(1000)]
    from ggrnet.data import Dataset
    parts = split(Dataset(mols, ["y"]), SplitSpec(0.8, 0.1, 0.1, seed=3))
    assert tuple(len(p) for p in parts) == (800, 100, 100)

    # normalized training targets
    train_part = parts[0]
    norm = fit_normalizer(train_part, "y")
    z = norm.normalize(train_part.target_values("y"))
    assert abs(z.mean()) < 1e-9
    assert abs(np.std(z, ddof=1) - 1.0) < 1e-9

    # post-clip gradient norm, synthetic and in a real step
    rng = np.random.default_rng(5)
    tensors = [ad.parameter(np.zeros((8, 8))) for _ in range(4)]
    for t in tensors:
        t.grad[:] = rng.normal(size=t.shape) * 100.0
    pre = ad.clip_global_norm(tensors, 10.0)
    post = ad.global_grad_norm(tensors)
    assert pre > 10.0
    assert post <= 10.0 + 1e-12
    with capsys.disabled():
        announce(4, "protocol exactness",
                 f"lr schedule exact, split 800/100/100, |mean|={abs(z.mean()):.1e}, "
                 f"|std-1|={abs(np.std(z, ddof=1) - 1):.1e}, post-clip norm {post:.6f}")


@pytest.fixture(scope="module")
def overfit_result():
    ds = geometric_dataset(32, seed=71, n_atoms=(3, 8))
    cfg = TrainConfig(target_property="energy", lr0=0.08, decay=0.002, epochs=300,
                      batch_size=10, clip_norm=10.0, seed=7, model=ModelConfig())
    t0 = time.perf_counter()
    result = train(ds, ds.subset(range(4)), cfg)
    return result, time.perf_counter() - t0


def test_criterion_5_overfit_smoke(overfit_result, capsys):
    result, elapsed = overfit_result
    first = result.reports[0].train_mse
    last = result.reports[-1].train_mse
    assert last < 0.01 * first, f"MSE only fell {first:.4f} -> {last:.4f}"
    assert elapsed < 300.0, f"smoke run took {elapsed:.0f}s"
    assert all(r.grad_norm <= 10.0 + 1e-12 for r in result.reports)
    with capsys.disabled():
        announce(5, "overfit smoke",
                 f"32 molecules, default dims, 300 epochs: MSE {first:.4f} -> "
                 f"{last:.5f} ({100 * last / first:.2f}% of initial), {elapsed:.0f}s")


def test_criterion_6_ablation_direction(capsys):
    # same geometric target as criterion 5, fixed molecule size so the atom
    # count cannot stand in for the distance feature, held-out val split
    ds = geometric_dataset(64, seed=31, n_atoms=(6, 6))
    tr, va, te = split(ds, SplitSpec(seed=5))
    cfg = TrainConfig(target_property="energy", lr0=0.05, decay=0.005, epochs=250,
                      batch_size=10, clip_norm=10.0, seed=2,
                      model=ModelConfig(atom_dim=8, count_dim=4, hidden_dim=12,
                                        mlp_dim=12, steps=3))
    full, ablated = run_ablation(cfg, tr, va, te, ["no_distance"])
    ratio = ablated.val_mae / full.val_mae
    assert ratio >= 2.0, f"no_distance/full val MAE ratio {ratio:.2f} < 2"
    with capsys.disabled():
        announce(6, "ablation direction",
                 f"val MAE full {full.val_mae:.4f} vs no_distance "
                 f"{ablated.val_mae:.4f}, ratio {ratio:.1f} >= 2")


def test_criterion_7_bitwise_determinism(tmp_path, capsys):
    cfg_text = (
        "dataset.path = builtin:sample10\n"
        "dataset.schema = builtin:sample\n"
        "dataset.elements = H,C,N,O,F\n"
        "target = energy\n"
        "model.atom_dim = 8\nmodel.count_dim = 6\nmodel.hidden_dim = 10\n"
        "model.mlp_dim = 10\nmodel.steps = 3\n"
        "train.epochs = 5\ntrain.batch_size = 4\ntrain.lr0 = 0.05\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--config", str(cfg_path), "--out", str(out1),
                 "--threads", "1"]) == 0
    # second run consumes the manifest the first one wrote
    assert main(["train", "--config", str(out1 / "manifest.cfg"), "--out", str(out2),
                 "--threads", "1"]) == 0
    capsys.readouterr()
    for name in ("metrics.jsonl", "best.ckpt", "final.ckpt", "report.json",
                 "manifest.cfg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    with capsys.disabled():
        announce(7, "determinism",
                 "two runs from one manifest: metrics, checkpoints, and report "
                 "byte-identical")


def test_criterion_8_scope_documented(capsys):
    readme = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    assert "property-based acceptance" in readme
    assert "out of scope" in readme
    assert "GGRNET_QM9_DIR" in readme
    with capsys.disabled():
        announce(8, "explicit non-reproduction",
                 "full-corpus benchmark MAE documented as out of scope; "
                 "property-based criteria 1-7 stand in")


@pytest.mark.skipif(not os.environ.get("GGRNET_QM9_DIR"),
                    reason="set GGRNET_QM9_DIR to run the optional QM9 subset smoke")
def test_criterion_8_optional_qm9_subset(capsys):
    from ggrnet.data import CommentSchema

    root = Path(os.environ["GGRNET_QM9_DIR"])
    files = sorted(root.glob("*.xyz"))[:2000]
    assert len(files) >= 100, f"need at least 100 molecules under {root}"
    schema = CommentSchema.builtin("qm9")
    from ggrnet.data import Dataset, parse_extended_xyz
    molecules = [parse_extended_xyz(p.read_bytes(), schema, ("H", "C", "N", "O", "F"))
                 for p in files]
    ds = Dataset(molecules, schema.property_names, ("H", "C", "N", "O", "F"),
                 schema.units)
    tr, va, te = split(ds, SplitSpec(seed=0))
    epochs = int(os.environ.get("GGRNET_QM9_EPOCHS", "5"))
    cfg = TrainConfig(target_property="HOMO", lr0=0.01, decay=0.05, epochs=epochs,
                      batch_size=10, clip_norm=10.0, seed=0, model=ModelConfig())
    result = train(tr, va, cfg)  # NumericalError here would fail the test
    best_so_far = np.minimum.accumulate([r.val_mae for r in result.reports])
    assert all(a >= b for a, b in zip(best_so_far, best_so_far[1:]))
    with capsys.disabled():
        announce(8, "optional QM9 subset",
                 f"{len(ds)} molecules, {epochs} epochs, no numerical abort, "
                 f"best val MAE non-increasing (final {best_so_far[-1]:.5f} Hartree)")
