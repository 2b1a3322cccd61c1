import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ggrnet.autodiff as ad
from ggrnet.data import Normalizer, SplitSpec, split
from ggrnet.errors import ConfigError, DataError, NumericalError, ShapeError
from ggrnet.model import ModelConfig, init_params
from ggrnet.synth import composition_dataset, geometric_dataset
from ggrnet.training import (
    ABLATION_FLAGS,
    TrainConfig,
    evaluate,
    lr_at_epoch,
    mae,
    mse_loss,
    run_ablation,
    train,
)

SMALL = ModelConfig(atom_dim=8, count_dim=4, hidden_dim=12, mlp_dim=12, steps=3)


def quick_config(**kwargs):
    base = dict(target_property="ncarbon", lr0=0.05, decay=0.005, epochs=4,
                batch_size=10, clip_norm=10.0, seed=1, model=SMALL)
    base.update(kwargs)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def comp_splits():
    ds = composition_dataset(40, seed=51, n_atoms=5)
    return split(ds, SplitSpec(seed=9))


# ---------------------------------------------------------------------------
# learning rate schedule


def test_lr_schedule_examples():
    assert lr_at_epoch(0.03, 0.01, 0) == 0.03
    assert lr_at_epoch(0.03, 0.01, 100) == 0.015
    assert lr_at_epoch(0.01, 0.05, 200) == pytest.approx(0.01 / 11)


def test_lr_schedule_monotone():
    values = [lr_at_epoch(0.03, 0.01, e) for e in range(200)]
    assert all(a > b for a, b in zip(values, values[1:]))
    flat = [lr_at_epoch(0.03, 0.0, e) for e in range(200)]
    assert set(flat) == {0.03}


def test_lr_schedule_rejects_negative_epoch():
    with pytest.raises(ValueError):
        lr_at_epoch(0.03, 0.01, -1)


# ---------------------------------------------------------------------------
# losses and metrics


def row(values):
    return ad.constant([list(values)])


def test_mse_zero_when_equal():
    assert mse_loss(None, row([1.0, 2.0]), [1.0, 2.0]).item() == 0.0


def test_mse_hand_case():
    assert mse_loss(None, row([0.0, 0.0]), [1.0, 3.0]).item() == 5.0


def test_mse_length_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(None, row([1.0]), [1.0, 2.0])
    with pytest.raises(ShapeError):
        mse_loss(None, ad.constant(np.zeros((1, 0))), [])


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    preds = ad.parameter(rng.normal(size=(1, 4)))
    targets = rng.normal(size=4).tolist()

    def build(graph):
        return mse_loss(graph, preds, targets)

    graph = ad.Graph()
    ad.backward(graph, build(graph))
    for k in range(preds.cols):
        expected = 2.0 * (preds.values[0, k] - targets[k]) / preds.cols
        assert preds.grad[0, k] == pytest.approx(expected, rel=1e-12)
        orig = preds.values[0, k]
        preds.values[0, k] = orig + 1e-6
        hi = build(None).item()
        preds.values[0, k] = orig - 1e-6
        lo = build(None).item()
        preds.values[0, k] = orig
        assert preds.grad[0, k] == pytest.approx((hi - lo) / 2e-6, abs=1e-7)


def test_mae_examples():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([1.0, 3.0], [2.0, 5.0]) == 1.5
    with pytest.raises(ShapeError):
        mae([1.0], [1.0, 2.0])


@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                min_size=1, max_size=40))
def test_mae_bounded_by_rmse(pairs):
    preds = [p for p, _ in pairs]
    targets = [t for _, t in pairs]
    rmse = math.sqrt(mse_loss(None, row(preds), targets).item())
    assert mae(preds, targets) <= rmse + 1e-9


def test_reported_mae_scales_with_normalizer_std():
    # MAE in original units is std times the normalized-residual MAE
    rng = np.random.default_rng(1)
    norm = Normalizer(mean=-3.0, std=7.5)
    preds_norm = rng.normal(size=20)
    targets_norm = rng.normal(size=20)
    original = mae(norm.invert(preds_norm), norm.invert(targets_norm))
    assert original == pytest.approx(norm.std * mae(preds_norm, targets_norm), rel=1e-12)


# ---------------------------------------------------------------------------
# training loop


def test_train_runs_and_reports(comp_splits):
    tr, va, te = comp_splits
    result = train(tr, va, quick_config())
    assert len(result.reports) == 4
    for e, rep in enumerate(result.reports):
        assert rep.epoch == e
        assert rep.lr == lr_at_epoch(0.05, 0.005, e)
        assert rep.seconds >= 0.0
    assert result.best_val_mae == min(r.val_mae for r in result.reports)
    assert result.reports[result.best_epoch].val_mae == result.best_val_mae


def test_train_missing_target(comp_splits):
    tr, va, _ = comp_splits
    with pytest.raises(DataError, match="nothere"):
        train(tr, va, quick_config(target_property="nothere"))


def test_train_deterministic(comp_splits):
    tr, va, _ = comp_splits

    def run():
        result = train(tr, va, quick_config(epochs=3))
        stream = [(r.epoch, r.lr, r.train_mse, r.val_mae, r.grad_norm)
                  for r in result.reports]
        return stream, result.final_params

    stream_a, params_a = run()
    stream_b, params_b = run()
    assert stream_a == stream_b
    for (_, ta), (_, tb) in zip(params_a.named(), params_b.named()):
        assert np.array_equal(ta.values, tb.values)


def test_best_checkpoint_matches_min_val(comp_splits):
    tr, va, _ = comp_splits
    result = train(tr, va, quick_config(epochs=6))
    again = evaluate(result.best_params, va, result.normalizer, SMALL,
                     result.vocabulary, "ncarbon")
    assert again.mae == result.best_val_mae


def test_gradient_norm_respects_clip(comp_splits):
    tr, va, _ = comp_splits
    result = train(tr, va, quick_config(epochs=3, clip_norm=0.05, lr0=0.2))
    assert all(r.grad_norm <= 0.05 + 1e-12 for r in result.reports)
    assert any(r.grad_norm > 0.04 for r in result.reports)  # clipping did trigger


def test_divergence_aborts_with_position(comp_splits):
    # norm clipping makes ordinary large rates saturate rather than blow up,
    # so force a one-step overflow to exercise the abort path
    tr, va, _ = comp_splits
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"epoch \d+, batch \d+"):
            train(tr, va, quick_config(epochs=5, lr0=1e150, clip_norm=1e300))


def test_non_finite_step_names_epoch_batch_molecule_and_step(comp_splits):
    # coincident atoms under a subnormal distance floor give an infinite
    # inverse distance, so only that molecule's grid turns non-finite
    from ggrnet.data import Dataset, Molecule

    tr, va, _ = comp_splits
    mols = list(tr)
    mols[5] = Molecule("dup", mols[5].symbols, np.zeros((mols[5].natoms, 3)), mols[5].targets)
    bad = Dataset(mols, tr.property_names, tr.element_vocabulary)
    cfg = quick_config(model=dataclasses.replace(SMALL, distance_epsilon=1e-310))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=r"^training aborted at epoch 0, batch \d+: "
                                                r"molecule dup, step 0: .*'message_step'"):
        train(bad, va, cfg)


def test_train_drops_the_recursion_workspace():
    # the workspace is kept between batches but not beyond the run: once
    # train returns, what stays allocated is far less than one batch's grids
    ds = geometric_dataset(4, seed=71, n_atoms=(20, 29))
    cfg = quick_config(target_property="energy", epochs=1, model=ModelConfig(steps=2))
    tracemalloc.start()
    try:
        result = train(ds, ds, cfg)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid_bytes = (2 * cfg.model.steps * sum(m.natoms ** 2 for m in ds)
                  * cfg.model.hidden_dim * 8)
    assert result.reports and current < grid_bytes, (current, grid_bytes)


def test_predict_chunks_keep_order_and_values():
    # more molecules than one chunk, and a partial last chunk
    from ggrnet.model import forward
    from ggrnet.training import PREDICT_CHUNK, predict

    ds = geometric_dataset(2 * PREDICT_CHUNK + 3, seed=61, n_atoms=(1, 9))
    params = init_params(SMALL, len(ds.element_vocabulary), ds.max_atom_count, seed=4)
    pairs = list(predict(params, ds, SMALL, ds.element_vocabulary))
    assert [mol for mol, _ in pairs] == list(ds)
    assert all(type(value) is float for _, value in pairs)
    got = np.array([value for _, value in pairs])
    want = [forward(None, m, params, SMALL, ds.element_vocabulary).item() for m in ds]
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_evaluate_is_pure_and_repeatable(comp_splits):
    tr, va, _ = comp_splits
    cfg = quick_config(epochs=2)
    result = train(tr, va, cfg)
    before = [t.values.copy() for t in result.final_params.tensors()]
    rep1 = evaluate(result.final_params, va, result.normalizer, SMALL,
                    result.vocabulary, "ncarbon", with_residuals=True)
    rep2 = evaluate(result.final_params, va, result.normalizer, SMALL,
                    result.vocabulary, "ncarbon", with_residuals=True)
    assert rep1 == rep2
    assert len(rep1.residuals) == len(va)
    after = [t.values for t in result.final_params.tensors()]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_evaluate_normalizer_inverse_offset(comp_splits):
    # a model that predicts 0 in normalized space reports the training mean
    tr, va, _ = comp_splits
    params = init_params(SMALL, len(tr.element_vocabulary), tr.max_atom_count, seed=0)
    params.candidate_weight.values[:] = 0.0  # forward output = readout(0) = 0
    norm = Normalizer(mean=10.0, std=2.0)
    report = evaluate(params, va, norm, SMALL, tr.element_vocabulary, "ncarbon")
    expected = mae([10.0] * len(va), va.target_values("ncarbon"))
    assert report.mae == pytest.approx(expected, rel=1e-12)


def test_evaluate_vocabulary_mismatch(comp_splits):
    tr, va, _ = comp_splits
    params = init_params(SMALL, 3, tr.max_atom_count, seed=0)
    with pytest.raises(DataError, match="vocabulary"):
        evaluate(params, va, Normalizer(0.0, 1.0), SMALL, ["H", "C", "X"], "ncarbon")


def test_evaluate_memorized_self_targets(comp_splits):
    # evaluating against the model's own inverse-transformed predictions
    # must give MAE 0: "perfect params" by construction
    from ggrnet.data import Dataset, Molecule
    from ggrnet.training import predict

    tr, va, _ = comp_splits
    result = train(tr, va, quick_config(epochs=2))
    relabeled = Dataset(
        [Molecule(m.mol_id, m.symbols, m.coords, {"ncarbon": p})
         for m, p in predict(result.final_params, va, SMALL, result.vocabulary,
                             result.normalizer)],
        ["ncarbon"], va.element_vocabulary)
    report = evaluate(result.final_params, relabeled, result.normalizer, SMALL,
                      result.vocabulary, "ncarbon")
    assert report.mae < 1e-12


def test_overfit_smoke_carbon_count():
    # 32 molecules, carbon-count target: trainable to near zero error
    ds = composition_dataset(32, seed=21, n_atoms=5)
    cfg = TrainConfig(target_property="ncarbon", lr0=0.05, decay=0.005, epochs=200,
                      batch_size=10, clip_norm=10.0, seed=1, model=SMALL)
    result = train(ds, ds.subset(range(4)), cfg)
    assert result.reports[-1].train_mse < 0.01 * result.reports[0].train_mse


def test_config_validation():
    with pytest.raises(ConfigError, match=r"^train\.lr0 "):
        quick_config(lr0=0.0)
    with pytest.raises(ConfigError, match=r"^train\.epochs "):
        quick_config(epochs=0)
    with pytest.raises(ConfigError, match=r"^train\.clip_norm "):
        quick_config(clip_norm=-1.0)
    with pytest.raises(ConfigError, match="'target'"):
        quick_config(target_property="")


# ---------------------------------------------------------------------------
# ablations


def test_ablation_rows_and_shapes(comp_splits):
    tr, va, te = comp_splits
    rows = run_ablation(quick_config(epochs=2), tr, va, te, list(ABLATION_FLAGS))
    assert [r.name for r in rows] == ["full", "no_count", "no_distance", "no_atom_embed"]
    for flag in ABLATION_FLAGS.values():
        ablated_cfg = dataclasses.replace(SMALL, **{flag: False})
        a = init_params(ablated_cfg, 4, 8, seed=0)
        b = init_params(SMALL, 4, 8, seed=0)
        assert [(n, t.shape) for n, t in a.named()] == [(n, t.shape) for n, t in b.named()]


def test_ablation_unknown_name(comp_splits):
    tr, va, te = comp_splits
    with pytest.raises(DataError, match="no_gravity"):
        run_ablation(quick_config(), tr, va, te, ["no_gravity"])


def test_ablation_distance_direction():
    # fixed-size molecules, geometric target: removing distances must hurt
    ds = geometric_dataset(48, seed=31, n_atoms=(5, 5))
    tr, va, te = split(ds, SplitSpec(seed=5))
    cfg = TrainConfig(target_property="energy", lr0=0.05, decay=0.005, epochs=60,
                      batch_size=10, clip_norm=10.0, seed=2, model=SMALL)
    rows = run_ablation(cfg, tr, va, te, ["no_distance"])
    full, ablated = rows
    assert ablated.val_mae > full.val_mae


def test_ablation_count_null_when_sizes_equal():
    # same-size molecules: the count feature is pure constant input, so
    # removing it must not wreck the model the way an informative feature would
    ds = composition_dataset(48, seed=41, n_atoms=5)
    tr, va, te = split(ds, SplitSpec(seed=6))
    cfg = TrainConfig(target_property="ncarbon", lr0=0.05, decay=0.005, epochs=60,
                      batch_size=10, clip_norm=10.0, seed=3, model=SMALL)
    rows = run_ablation(cfg, tr, va, te, ["no_count"])
    full, ablated = rows
    assert ablated.val_mae < 2.0 * max(full.val_mae, 1e-6)
