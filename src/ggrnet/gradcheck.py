"""End-to-end finite-difference validation of the analytic gradients.

For every parameter entry, the analytic gradient (one recorded forward plus
backward over a small batch loss) is compared against central differences of
the batch loss, which the numeric side evaluates with the two functions
training runs: :func:`~ggrnet.model.forward_batch`, then
:func:`~ggrnet.training.mse_loss`. No live tensor is written: an entry's
``+`` and ``-`` perturbations are two replicas of a no-grad
``forward_batch``, which runs the replicas of as many entries of a tensor as
fit :data:`REPLICA_BYTES` (at least one) through the recursion and one
stacked readout, and returns one row of predictions per replica, with the
bits of a whole forward pass with the entry written into the live tensor.
One unrecorded ``mse_loss`` call turns those rows into one loss each. The
error metric is ``|analytic - numeric| / max(|analytic|, |numeric|, 1)``,
i.e. relative for large gradients and absolute near zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph
from .data import Molecule
from .errors import NumericalError
from .model import (_RECURSION_TENSORS, ModelConfig, ModelParams, MoleculeEncoding, _is_bias,
                    _workspace_size, forward_batch, init_params, release_workspace)
from .synth import random_molecules
from .training import mse_loss

__all__ = ["GradCheckReport", "gradient_check", "run_gradcheck", "DEFAULT_CHECK_CONFIG"]

DEFAULT_CHECK_CONFIG = ModelConfig(atom_dim=4, count_dim=4, hidden_dim=8, mlp_dim=8, steps=3)
CHECK_VOCABULARY = ("H", "C", "N", "O")

# the bytes that the replicas of one forward_batch call may fill
REPLICA_BYTES = 1 << 19


@dataclass(frozen=True)
class GradCheckReport:
    max_error: float
    worst_tensor: str
    worst_index: tuple[int, int]
    parameter_count: int


def gradient_check(params: ModelParams, cfg: ModelConfig, molecules: Sequence[Molecule],
                   targets: Sequence[float], vocabulary: Sequence[str],
                   fd_step: float = 1e-5, corrupt: bool = False) -> GradCheckReport:
    """Compare analytic and central-difference gradients of the batch MSE.

    ``corrupt`` deliberately scales one analytic gradient to verify the check
    itself can fail (negative control). Every entry is perturbed in replicas
    only, so the check writes no parameter value. A :class:`NumericalError`
    of a perturbed pass names the tensor perturbed. The spare recursion
    workspace is freed when the check returns or raises.
    """
    encodings = [MoleculeEncoding(m, vocabulary, cfg) for m in molecules]
    sizes = [enc.n for enc in encodings]
    named = params.named()
    try:
        ad.zero_grads([t for _, t in named])
        graph = Graph()
        ad.backward(graph, mse_loss(graph, forward_batch(graph, encodings, params, cfg),
                                    targets))
        analytic = {name: t.grad.copy() for name, t in named}
        if corrupt:
            analytic["gate_weight"] *= 1.01
        worst = (0.0, "", (0, 0))
        total = 0
        for name, tensor in named:
            grad = analytic[name]
            per_call = _entries_per_call(cfg, sizes, name, tensor.values.size)
            try:
                for entries, preds in _perturbed_predictions(params, cfg, encodings, name,
                                                             fd_step, per_call):
                    total += len(entries)
                    loss = mse_loss(None, preds, targets).values[:, 0]
                    numeric = (loss[0::2] - loss[1::2]) / (2.0 * fd_step)
                    a = grad[tuple(zip(*entries))]
                    err = (np.abs(a - numeric)
                           / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1.0))
                    j = int(err.argmax())
                    if err[j] > worst[0]:
                        worst = (err[j], name, entries[j])
            except NumericalError as exc:
                raise NumericalError(f"perturbations of '{name}': {exc}") from exc
    finally:
        release_workspace()
    return GradCheckReport(max_error=worst[0], worst_tensor=worst[1],
                           worst_index=worst[2], parameter_count=total)


def _entries_per_call(cfg: ModelConfig, sizes: Sequence[int], name: str, size: int) -> int:
    """Entries of tensor ``name`` (``size`` entries) whose two replicas fit
    :data:`REPLICA_BYTES` in one call, at least one: the recursion's workspace
    for a recursion tensor, the stacked values for a readout one."""
    per_replica = _workspace_size(cfg, sizes) if name in _RECURSION_TENSORS else size
    return max(1, REPLICA_BYTES // 8 // (2 * per_replica))


def _perturbed_predictions(params: ModelParams, cfg: ModelConfig,
                           encodings: Sequence[MoleculeEncoding], name: str, fd_step: float,
                           per_call: int):
    """``(entries, preds)`` per :func:`forward_batch` call over the tensor
    ``name``: up to ``per_call`` of its entries, in :func:`np.ndindex` order,
    and the ``[2 len(entries), B]`` prediction tensor of the batch, rows ``2j``
    and ``2j + 1`` with entry j at ``orig + fd_step`` and ``orig - fd_step``.
    The live tensor is never written."""
    values = dict(params.named())[name].values
    entries = list(np.ndindex(values.shape))
    for start in range(0, len(entries), per_call):
        chunk = entries[start:start + per_call]
        stack = np.repeat(values[None], 2 * len(chunk), axis=0)
        for j, idx in enumerate(chunk):
            stack[(2 * j, *idx)] = values[idx] + fd_step
            stack[(2 * j + 1, *idx)] = values[idx] - fd_step
        yield chunk, forward_batch(None, encodings, params, cfg, replicas=(name, stack))


def _random_params(cfg: ModelConfig, vocab_size: int, max_atom_count: int,
                   seed: int) -> ModelParams:
    """Training init plus random biases.

    The training initializer zeroes biases, which parks ReLU pre-activations
    exactly on the kink for zero hidden states (single-atom molecules); a
    finite difference straddling the kink would then disagree with any
    subgradient choice. Random biases move the check off that measure-zero
    pathology without changing what is being verified.
    """
    params = init_params(cfg, vocab_size, max_atom_count, seed)
    rng = np.random.default_rng(seed + 20_000)
    for name, tensor in params.named():
        if _is_bias(name):
            tensor.values[:] = rng.uniform(-0.5, 0.5, size=tensor.shape)
    return params


def run_gradcheck(seed: int = 0, seeds: int = 5, atom_counts: Sequence[int] = (1, 2, 4, 6),
                  cfg: ModelConfig = DEFAULT_CHECK_CONFIG,
                  fd_step: float = 1e-5, corrupt: bool = False) -> list[GradCheckReport]:
    """One gradient check per seed, each over fresh random params and
    molecules of :data:`CHECK_VOCABULARY`; a :class:`NumericalError` names
    the seed of its check."""
    reports = []
    for k in range(seeds):
        s = seed + k
        molecules = random_molecules(s, len(atom_counts), sizes=tuple(atom_counts),
                                     elements=CHECK_VOCABULARY)
        targets = np.random.default_rng(s + 10_000).normal(size=len(molecules)).tolist()
        params = _random_params(cfg, len(CHECK_VOCABULARY), max(atom_counts), s)
        try:
            reports.append(gradient_check(params, cfg, molecules, targets, CHECK_VOCABULARY,
                                          fd_step=fd_step, corrupt=corrupt))
        except NumericalError as exc:
            raise NumericalError(f"seed {s}, {exc}") from exc
    return reports
