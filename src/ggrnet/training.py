"""Per-target training loop, evaluation, and the feature-ablation harness.

Training is plain SGD on the mean-squared error of normalized targets, with
a per-epoch hyperbolic learning-rate decay ``lr0 / (1 + decay * epoch)`` and
global-norm gradient clipping. Validation MAE is reported in original target
units (predictions are inverse-transformed with the training normalizer),
and the best-validation parameter snapshot is kept alongside the final one.
"""
from __future__ import annotations

import itertools
import math
import resource
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor
from .data import Dataset, Molecule, Normalizer, fit_normalizer
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .model import (ModelConfig, ModelParams, MoleculeEncoding, _give_workspace, _grid_pairs,
                    _take_workspace, _workspace_size, forward_batch, init_params,
                    release_workspace)

__all__ = [
    "TrainConfig",
    "EpochReport",
    "TrainResult",
    "EvalReport",
    "AblationRow",
    "ABLATION_FLAGS",
    "lr_at_epoch",
    "mse_loss",
    "mae",
    "predict",
    "evaluate",
    "setup_run",
    "train",
    "run_ablation",
]

# molecules per forward pass of predict: a no-grad pass builds each
# molecule's joint gate and candidate grid in turn into one workspace slot,
# sized for the chunk's largest molecule, so memory grows with the chunk only
# through its [ΣN, 4 hidden] terms and [ΣN, hidden] states
PREDICT_CHUNK = 10

# bytes of gate and candidate activations that one recorded forward of a
# training batch may keep for its backward, 8·steps·2·hidden per atom pair:
# a batch whose grids exceed it runs as sub-batches, so a training step's
# memory does not grow with batch size × N²
GRID_BUDGET = 16 << 20


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters for one per-target run.

    Defaults follow the smaller-dataset regime (lr0 0.03, decay 0.01,
    500 epochs); large-corpus runs typically use lr0 0.01, decay 0.05,
    200 epochs. Batch size 10 and clip norm 10.0 are shared.
    """

    target_property: str
    lr0: float = 0.03
    decay: float = 0.01
    epochs: int = 500
    batch_size: int = 10
    clip_norm: float = 10.0
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if not self.target_property:
            raise ConfigError("config key 'target' is required")
        # each check fails on NaN
        for name, ok, bound in (("lr0", 0 < self.lr0 < math.inf, "finite and > 0"),
                                ("decay", 0 <= self.decay < math.inf, "finite and >= 0"),
                                ("epochs", self.epochs >= 1, ">= 1"),
                                ("batch_size", self.batch_size >= 1, ">= 1"),
                                ("clip_norm", self.clip_norm > 0, "> 0"),
                                ("seed", self.seed >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"train.{name} must be {bound}, got {getattr(self, name)}")


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    lr: float
    train_mse: float        # normalized target space
    val_mae: float          # original target units
    grad_norm: float        # max post-clip global norm over the epoch's batches
    seconds: float
    minor_faults: int       # the process's minor page faults during the epoch
    # parts of seconds: zeroing gradients, forward and loss; backward;
    # clipping and update; the validation pass
    forward_s: float
    backward_s: float
    update_s: float
    eval_s: float


@dataclass
class TrainResult:
    final_params: ModelParams
    best_params: ModelParams
    best_epoch: int
    best_val_mae: float
    reports: list[EpochReport]
    normalizer: Normalizer
    config: TrainConfig
    vocabulary: list[str]


@dataclass(frozen=True)
class EvalReport:
    property_name: str
    n: int
    mae: float
    residuals: tuple[float, ...] | None = None


def lr_at_epoch(lr0: float, decay: float, epoch: int) -> float:
    """Hyperbolic decay: initial rate divided by (1 + decay * epoch index)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return lr0 / (1.0 + decay * epoch)


def mse_loss(graph: Graph | None, preds: Tensor, targets: Sequence[float],
             divisor: int | None = None) -> Tensor:
    """Mean squared error of each row of ``[R, B]`` predictions against the B
    ``targets`` as one op, ``[R, 1]``: a row's residuals dotted with themselves,
    times ``1/D``, where the divisor D is B unless given (the size of the whole
    batch, for one of its sub-batches). A recorded call takes one row; its
    gradient is ``g (2/D) diff``."""
    batch = len(targets)
    if batch == 0 or preds.cols != batch or (graph is not None and preds.rows != 1):
        raise ShapeError(f"mse_loss: predictions of shape {preds.shape} vs {batch} targets "
                         f"(a recorded call takes one row)")
    divisor = batch if divisor is None else divisor
    diff = preds.values - np.array(targets, dtype=np.float64)
    loss = np.matmul(diff[:, None], diff[:, :, None])[:, 0] * (1.0 / divisor)
    return ad._result(graph, "mse_loss", (preds,), loss,
                      lambda g: (g * (2.0 / divisor) * diff,))


def mae(pred: Sequence[float], target: Sequence[float]) -> float:
    """Mean absolute error between two equal-length value sequences."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"mae: {pred.shape} predictions vs {target.shape} targets")
    if pred.size == 0:
        raise ShapeError("mae: empty value lists")
    return float(np.mean(np.abs(pred - target)))


def predict(params: ModelParams, molecules: Iterable[Molecule], cfg: ModelConfig,
            vocabulary: Sequence[str],
            normalizer: Normalizer | None = None) -> Iterator[tuple[Molecule, float]]:
    """``(molecule, value)`` pairs in order, each value a Python float, without
    recording any graph: one forward pass per :data:`PREDICT_CHUNK` molecules,
    each chunk read and encoded when reached and dropped before the next is
    read. Values are in original units when a normalizer is given."""
    pending = iter(molecules)
    while chunk := list(itertools.islice(pending, PREDICT_CHUNK)):
        encodings = [MoleculeEncoding(m, vocabulary, cfg) for m in chunk]
        values = forward_batch(None, encodings, params, cfg).values[0]
        if normalizer is not None:
            values = normalizer.invert(values)
        yield from zip(chunk, values.tolist())
        del chunk, encodings                      # before the next chunk is read


def evaluate(params: ModelParams, ds: Dataset, normalizer: Normalizer, cfg: ModelConfig,
             vocabulary: Sequence[str], target_property: str,
             with_residuals: bool = False) -> EvalReport:
    """MAE over a dataset in original target units, from the values of
    :func:`predict`. Pure: mutates nothing."""
    if len(ds) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    targets = ds.target_values(target_property)
    preds = np.array([value for _, value in predict(params, ds, cfg, vocabulary, normalizer)])
    residuals = tuple(float(r) for r in (preds - targets)) if with_residuals else None
    return EvalReport(property_name=target_property, n=len(ds), mae=mae(preds, targets),
                      residuals=residuals)


def _sgd_update(tensors: Sequence[Tensor], lr: float) -> None:
    """``values -= lr * grad`` for each tensor, in place and without a
    temporary: the gradient is scaled first, which rounds as ``lr * grad`` does."""
    for t in tensors:
        t.grad *= lr
        t.values -= t.grad


def _budget_pairs(cfg: ModelConfig) -> int:
    """The most atom pairs whose recorded grids fit :data:`GRID_BUDGET`."""
    return GRID_BUDGET // (8 * cfg.steps * 2 * cfg.hidden_dim)


def _sub_batches(sizes: Sequence[int], cfg: ModelConfig) -> list[slice]:
    """Consecutive runs of a batch of molecules of ``sizes`` atoms, each as
    long as its recorded grids fit :data:`GRID_BUDGET` (next fit, in batch
    order): the whole batch when it fits, and a molecule larger than the
    budget alone."""
    budget, edges, held = _budget_pairs(cfg), [0], 0
    for k, n in enumerate(sizes):
        pairs = _grid_pairs([n])
        if held and held + pairs > budget:
            edges.append(k)
            held = 0
        held += pairs
    edges.append(len(sizes))
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def setup_run(train_ds: Dataset, val_ds: Dataset,
              cfg: TrainConfig) -> tuple[list[str], Normalizer, ModelParams]:
    """A run's vocabulary, normalizer (fitted on the training partition only)
    and seeded initial parameters, after the target is found in both
    partitions. The recursion's workspace is requested and kept as the spare,
    so a model too large raises here, and no sub-batch or validation pass of
    the run allocates one: the larger of the no-grad workspace of the
    :data:`PREDICT_CHUNK` largest validation molecules and the recorded one
    of the ``cfg.batch_size`` largest training molecules, with its grids
    bounded as a sub-batch's are, by the larger of :data:`GRID_BUDGET` and
    the largest molecule's grids."""
    prop = cfg.target_property
    if prop not in train_ds.property_names or prop not in val_ds.property_names:
        raise DataError(f"target '{prop}' not among dataset properties "
                        f"{train_ds.property_names}")
    vocabulary = list(train_ds.element_vocabulary)
    normalizer = fit_normalizer(train_ds, prop)
    params = init_params(cfg.model, len(vocabulary), train_ds.max_atom_count, cfg.seed)
    batch = sorted((mol.natoms for mol in train_ds), reverse=True)[:cfg.batch_size]
    chunk = sorted((mol.natoms for mol in val_ds), reverse=True)[:PREDICT_CHUNK]
    pairs = min(_grid_pairs(batch), max(_budget_pairs(cfg.model), _grid_pairs(batch[:1])))
    # an empty validation set needs none; evaluate raises on it
    _give_workspace(_take_workspace(max(_workspace_size(cfg.model, batch, recording=True,
                                                        grid_pairs=pairs),
                                        _workspace_size(cfg.model, chunk) if chunk else 0)))
    return vocabulary, normalizer, params


def train(train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig,
          epoch_callback: Callable[[EpochReport], None] | None = None) -> TrainResult:
    """SGD with per-epoch decayed learning rate, gradient clipping, and
    best-validation checkpointing, set up by :func:`setup_run`.

    Every epoch reshuffles the training indices from one seeded RNG stream,
    so a given seed reproduces the whole run bit for bit. A batch whose
    recorded grids exceed :data:`GRID_BUDGET` runs as the consecutive
    sub-batches of :func:`_sub_batches`, each with its own forward, loss
    (divided by the whole batch's size) and backward, which add into the
    gradients; one clip and one update follow, as for a batch that fits, so
    the gradient is the sum of the sub-batches', which may differ from the
    whole batch's in the last bits. Each sub-batch is encoded when it runs,
    with the training set's own vocabulary, so no element is unknown. The
    recursion workspace is freed when the run ends.
    """
    prop = cfg.target_property
    vocabulary, normalizer, params = setup_run(train_ds, val_ds, cfg)
    tensors = params.tensors()

    targets_norm = [normalizer.normalize(m.targets[prop]) for m in train_ds]
    natoms = [m.natoms for m in train_ds]

    n = len(train_ds)
    rng = np.random.default_rng(cfg.seed)
    reports: list[EpochReport] = []
    best_val = float("inf")
    best_params = params.copy()
    best_epoch = -1

    try:
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            lr = lr_at_epoch(cfg.lr0, cfg.decay, epoch)
            order = rng.permutation(n)
            sq_sum = 0.0
            max_norm = 0.0
            forward_s = backward_s = update_s = 0.0
            for batch_idx, lo in enumerate(range(0, n, cfg.batch_size)):
                batch = order[lo:lo + cfg.batch_size]
                t_forward = time.perf_counter()
                try:
                    ad.zero_grads(tensors)
                    for part in _sub_batches([natoms[i] for i in batch], cfg.model):
                        graph = Graph()
                        preds = forward_batch(
                            graph, [MoleculeEncoding(train_ds[i], vocabulary, cfg.model)
                                    for i in batch[part]], params, cfg.model)
                        loss = mse_loss(graph, preds, [targets_norm[i] for i in batch[part]],
                                        len(batch))
                        sq_sum += loss.item() * len(batch)
                        t_backward = time.perf_counter()
                        ad.backward(graph, loss)
                        t_update = time.perf_counter()
                        forward_s += t_backward - t_forward
                        backward_s += t_update - t_backward
                        t_forward = t_update
                except NumericalError as err:
                    raise NumericalError(
                        f"training aborted at epoch {epoch}, batch {batch_idx}: {err}") from err
                pre_norm = ad.clip_global_norm(tensors, cfg.clip_norm)
                post_norm = ad.global_grad_norm(tensors) if pre_norm > cfg.clip_norm else pre_norm
                max_norm = max(max_norm, post_norm)
                _sgd_update(tensors, lr)
                t_done = time.perf_counter()
                update_s += t_done - t_update

            t_eval = time.perf_counter()
            val_report = evaluate(params, val_ds, normalizer, cfg.model, vocabulary, prop)
            t_done = time.perf_counter()
            report = EpochReport(epoch=epoch, lr=lr, train_mse=sq_sum / n,
                                 val_mae=val_report.mae, grad_norm=max_norm,
                                 seconds=t_done - t0,
                                 minor_faults=resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                                 - faults0,
                                 forward_s=forward_s, backward_s=backward_s, update_s=update_s,
                                 eval_s=t_done - t_eval)
            reports.append(report)
            if epoch_callback is not None:
                epoch_callback(report)
            if report.val_mae < best_val:
                best_val = report.val_mae
                best_params = params.copy()
                best_epoch = epoch

        return TrainResult(final_params=params, best_params=best_params, best_epoch=best_epoch,
                           best_val_mae=best_val, reports=reports, normalizer=normalizer,
                           config=cfg, vocabulary=vocabulary)
    finally:
        release_workspace()


# ---------------------------------------------------------------------------
# ablations

ABLATION_FLAGS = {
    "no_count": "use_count_feature",
    "no_distance": "use_distance_feature",
    "no_atom_embed": "use_atom_embedding",
}


@dataclass(frozen=True)
class AblationRow:
    name: str
    val_mae: float
    test_mae: float


def run_ablation(cfg: TrainConfig, train_ds: Dataset, val_ds: Dataset, test_ds: Dataset,
                 which: Sequence[str],
                 epoch_callback: Callable[[str, EpochReport], None] | None = None
                 ) -> list[AblationRow]:
    """Train the full model and each requested single-feature ablation with
    identical seed and data; report best-validation and test MAE per variant."""
    unknown = [w for w in which if w not in ABLATION_FLAGS]
    if unknown:
        raise DataError(f"unknown ablation(s) {unknown}; valid: {sorted(ABLATION_FLAGS)}")
    rows = []
    for name in ["full", *which]:
        model_cfg = cfg.model
        if name != "full":
            model_cfg = replace(model_cfg, **{ABLATION_FLAGS[name]: False})
        variant_cfg = replace(cfg, model=model_cfg)
        callback = (lambda r, _name=name: epoch_callback(_name, r)) if epoch_callback else None
        result = train(train_ds, val_ds, variant_cfg, epoch_callback=callback)
        test_report = evaluate(result.best_params, test_ds, result.normalizer, model_cfg,
                               result.vocabulary, cfg.target_property)
        rows.append(AblationRow(name=name, val_mae=result.best_val_mae,
                                test_mae=test_report.mae))
    return rows
