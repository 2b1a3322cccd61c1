"""End-to-end finite-difference validation of the analytic gradients.

For every parameter entry, the analytic gradient (one recorded forward plus
backward over a small batch loss) is compared against central differences of
the unrecorded forward path. Every loss evaluation runs the whole batch
through one forward pass, as training does. The error metric is
``|analytic - numeric| / max(|analytic|, |numeric|, 1)``, i.e. relative for
large gradients and absolute near zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph
from .data import Molecule
from .model import (ModelConfig, ModelParams, MoleculeEncoding, _is_bias, forward_batch,
                    init_params)
from .synth import random_molecules
from .training import mse_loss

__all__ = ["GradCheckReport", "gradient_check", "run_gradcheck", "DEFAULT_CHECK_CONFIG"]

DEFAULT_CHECK_CONFIG = ModelConfig(atom_dim=4, count_dim=4, hidden_dim=8, mlp_dim=8, steps=3)


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
    itself can fail (negative control).
    """
    encodings = [MoleculeEncoding(m, vocabulary, cfg) for m in molecules]

    def loss_value(graph: Graph | None) -> ad.Tensor:
        return mse_loss(graph, forward_batch(graph, encodings, params, cfg), targets)

    named = params.named()
    ad.zero_grads([t for _, t in named])
    graph = Graph()
    ad.backward(graph, loss_value(graph))
    analytic = {name: t.grad.copy() for name, t in named}
    if corrupt:
        analytic["gate_weight"] *= 1.01

    worst = (0.0, "", (0, 0))
    total = 0
    for name, tensor in named:
        values = tensor.values
        grad = analytic[name]
        for idx in np.ndindex(values.shape):
            total += 1
            orig = values[idx]
            values[idx] = orig + fd_step
            hi = loss_value(None).item()
            values[idx] = orig - fd_step
            lo = loss_value(None).item()
            values[idx] = orig
            numeric = (hi - lo) / (2.0 * fd_step)
            a = grad[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            if err > worst[0]:
                worst = (err, name, idx)
    return GradCheckReport(max_error=worst[0], worst_tensor=worst[1],
                           worst_index=worst[2], parameter_count=total)


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
                  vocabulary: Sequence[str] = ("H", "C", "N", "O"),
                  fd_step: float = 1e-5, corrupt: bool = False) -> list[GradCheckReport]:
    """One gradient check per seed, each over fresh random params and molecules."""
    reports = []
    for k in range(seeds):
        s = seed + k
        molecules = random_molecules(s, len(atom_counts), sizes=tuple(atom_counts),
                                     elements=vocabulary)
        targets = np.random.default_rng(s + 10_000).normal(size=len(molecules)).tolist()
        params = _random_params(cfg, len(vocabulary), max(atom_counts), s)
        reports.append(gradient_check(params, cfg, molecules, targets, vocabulary,
                                      fd_step=fd_step, corrupt=corrupt))
    return reports
