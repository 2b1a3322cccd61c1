"""Gated graph recursive network over complete directed molecular graphs.

Per recursion step, every ordered atom pair (receiver, sender) contributes a
gated message built from the pair's input embeddings, current hidden
vectors, the molecule-size embedding, and the reciprocal pair distance; the
receiver's next hidden vector is the message sum divided by the atom count.
One weight set is shared across all steps, and the input embeddings re-enter
the message at every step. The readout averages the final hidden vectors and
applies a three-layer ReLU MLP down to a scalar.

The forward pass is vectorized over pairs without ever forming a per-pair
input matrix. Gate and candidate are affine in the concatenated pair input,
so each splits by block into a receiver term and a sender term, each a
``[hidden, N]`` product with the atom columns, plus the count term and the
distance weight times the ``[N, N]`` inverse-distance matrix. Broadcasting
the two terms against each other gives the pre-activations of all pairs as a
``[hidden, N, N]`` grid (receiver, sender), whose diagonal is masked out.
Each step is one recorded op with a hand-written backward
(:func:`message_step`). The constant per-molecule structure (element one-hot
matrix, inverse distances) is precomputed once in :class:`MoleculeEncoding`
and reused across steps and calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor
from .data import DEFAULT_DISTANCE_EPSILON, Molecule, inverse_distance_matrix
from .errors import ConfigError, NumericalError, VocabularyError

__all__ = [
    "ModelConfig",
    "ModelParams",
    "MoleculeEncoding",
    "param_shapes",
    "init_params",
    "message_step",
    "readout",
    "forward",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes and feature switches.

    Switching a feature off replaces its input block with zeros of the same
    length, so every ablation variant has identical parameter shapes.
    """

    atom_dim: int = 50
    count_dim: int = 50
    hidden_dim: int = 100
    mlp_dim: int = 100
    steps: int = 5
    use_atom_embedding: bool = True
    use_count_feature: bool = True
    use_distance_feature: bool = True
    distance_epsilon: float = DEFAULT_DISTANCE_EPSILON

    def __post_init__(self):
        for name in ("atom_dim", "count_dim", "hidden_dim", "mlp_dim", "steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if self.distance_epsilon <= 0:
            raise ConfigError(f"model.distance_epsilon must be > 0, got {self.distance_epsilon}")

    @property
    def concat_dim(self) -> int:
        """Row count of the per-pair message input: two embeddings, two hidden
        vectors, the count embedding, and the scalar distance feature."""
        return 2 * self.atom_dim + 2 * self.hidden_dim + self.count_dim + 1


@dataclass
class ModelParams:
    """All trainable tensors, shaped as :func:`param_shapes` lists them. One
    gate/candidate weight set exists regardless of the number of recursion
    steps; ``mlp`` holds the readout's (weight, bias) pairs."""

    atom_embedding: Tensor
    count_embedding: Tensor
    gate_weight: Tensor
    gate_bias: Tensor
    candidate_weight: Tensor
    candidate_bias: Tensor
    mlp: list[tuple[Tensor, Tensor]] = field(default_factory=list)

    def named(self) -> list[tuple[str, Tensor]]:
        pairs = [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "mlp"]
        for i, (w, b) in enumerate(self.mlp):
            pairs.append((f"readout_w{i}", w))
            pairs.append((f"readout_b{i}", b))
        return pairs

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]

    def parameter_count(self) -> int:
        return sum(t.values.size for t in self.tensors())

    @property
    def max_atom_count(self) -> int:
        return self.count_embedding.rows

    def copy(self) -> "ModelParams":
        return ModelParams.from_named({name: ad.parameter(t.values.copy(), t.name)
                                       for name, t in self.named()})

    @classmethod
    def from_named(cls, tensors: Mapping[str, Tensor]) -> "ModelParams":
        """Inverse of :meth:`named`: tensors keyed by their :func:`param_shapes` name."""
        core = {name: t for name, t in tensors.items() if not name.startswith("readout_")}
        layers = sum(name.startswith("readout_w") for name in tensors)
        return cls(**core, mlp=[(tensors[f"readout_w{i}"], tensors[f"readout_b{i}"])
                                  for i in range(layers)])


def param_shapes(cfg: ModelConfig, vocab_size: int,
                 max_atom_count: int) -> list[tuple[str, tuple[int, int]]]:
    """Name and shape of every trainable tensor, in :meth:`ModelParams.named` order."""
    shapes = [("atom_embedding", (vocab_size, cfg.atom_dim)),
              ("count_embedding", (max_atom_count, cfg.count_dim)),
              ("gate_weight", (cfg.hidden_dim, cfg.concat_dim)),
              ("gate_bias", (cfg.hidden_dim, 1)),
              ("candidate_weight", (cfg.hidden_dim, cfg.concat_dim)),
              ("candidate_bias", (cfg.hidden_dim, 1))]
    widths = (cfg.hidden_dim, cfg.mlp_dim, cfg.mlp_dim, 1)
    for i, (cols, rows) in enumerate(zip(widths, widths[1:])):
        shapes += [(f"readout_w{i}", (rows, cols)), (f"readout_b{i}", (rows, 1))]
    return shapes


def _is_bias(name: str) -> bool:
    return name.endswith("_bias") or name.startswith("readout_b")


def init_params(cfg: ModelConfig, vocab_size: int, max_atom_count: int, seed: int) -> ModelParams:
    """Seed-deterministic fan-scaled uniform weights; biases start at zero.

    Weights are drawn in :func:`param_shapes` order (embeddings, gate,
    candidate, readout), so a given seed always yields bit-identical
    parameters.
    """
    if vocab_size < 1 or max_atom_count < 1:
        raise ConfigError(f"vocab_size and max_atom_count must be >= 1, "
                          f"got {vocab_size} and {max_atom_count}")
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, (rows, cols) in param_shapes(cfg, vocab_size, max_atom_count):
        if _is_bias(name):
            values = np.zeros((rows, cols))
        else:
            bound = math.sqrt(6.0 / (rows + cols))
            values = rng.uniform(-bound, bound, size=(rows, cols))
        tensors[name] = ad.parameter(values, name)
    return ModelParams.from_named(tensors)


def element_indices(symbols: Sequence[str], vocabulary: Sequence[str]) -> list[int]:
    index = {sym: i for i, sym in enumerate(vocabulary)}
    out = []
    for sym in symbols:
        if sym not in index:
            raise VocabularyError(f"element '{sym}' not in vocabulary {list(vocabulary)}")
        out.append(index[sym])
    return out


class MoleculeEncoding:
    """Constant per-molecule structure shared by every step and every call.

    Atoms are columns, in file order: ``element_onehot`` is the
    ``[vocab, N]`` one-hot matrix of the elements, and ``inv_dist`` the
    ``[N, N]`` matrix of reciprocal pair distances, receiver by sender, with
    a zero diagonal (``None`` when the distance feature is off). A message
    grid indexed the same way, ``[hidden, N, N]``, holds every ordered pair
    once; its diagonal is not a pair and is masked. For a single-atom
    molecule there are no pairs and the hidden state stays at zero.
    """

    def __init__(self, molecule: Molecule, vocabulary: Sequence[str], cfg: ModelConfig):
        n = molecule.natoms
        self.mol_id = molecule.mol_id
        self.n = n
        idx = element_indices(molecule.symbols, vocabulary)
        onehot = np.zeros((len(vocabulary), n))
        onehot[idx, np.arange(n)] = 1.0
        self.element_onehot = ad.constant(onehot, "element_onehot")
        self.inv_dist = (inverse_distance_matrix(molecule.coords, cfg.distance_epsilon)
                         if cfg.use_distance_feature else None)


def _input_blocks(graph: Graph | None, enc: MoleculeEncoding, params: ModelParams,
                  cfg: ModelConfig) -> tuple[Tensor | None, Tensor | None]:
    """Step-invariant message inputs: the atom embeddings ``[atom, N]`` and the
    count embedding column ``[count, 1]``; ``None`` for a feature switched off."""
    x = count = None
    if cfg.use_atom_embedding:
        x = ad.matmul(graph, ad.transpose(graph, params.atom_embedding), enc.element_onehot)
    if cfg.use_count_feature:
        row = min(enc.n, params.max_atom_count) - 1
        count = ad.transpose(graph, ad.slice_rows(graph, params.count_embedding, row, row + 1))
    return x, count


def message_step(graph: Graph | None, params: ModelParams, cfg: ModelConfig,
                 x: Tensor | None, state: Tensor, count: Tensor | None,
                 inv_dist: np.ndarray | None) -> Tensor:
    """One recursion step as one recorded op: the next hidden state ``[hidden, N]``.

    ``x`` is ``[atom, N]``, ``count`` ``[count, 1]`` and ``inv_dist`` ``[N, N]``
    with a zero diagonal; ``None`` marks a feature switched off, whose weight
    block is skipped and gets a zero gradient. For gate and candidate alike,
    with ``z = [x; state]``, pair (v, w) has the pre-activation ``R[:, v] +
    S[:, w] + w_d * inv_dist[v, w]``, where ``R = W_r z + W_cnt count + b``
    and ``S = W_s z`` use column blocks of the weight. The ``[hidden, N, N]``
    grid of messages ``sigmoid(gate) * tanh(candidate)``, diagonal masked, is
    summed over senders and divided by N. Raises :class:`NumericalError` if
    any pre-activation is non-finite, which the saturating gates would hide.
    """
    n = state.cols
    half = cfg.atom_dim + cfg.hidden_dim          # receiver columns; sender ones follow
    lo = 0 if x is not None else cfg.atom_dim     # first used column within each half
    recv, send = slice(lo, half), slice(half + lo, 2 * half)
    cnt = slice(2 * half, 2 * half + cfg.count_dim)
    z = state.values if x is None else np.concatenate((x.values, state.values))

    def pre_activation(weight: Tensor, bias: Tensor) -> np.ndarray:
        w = weight.values
        r = w[:, recv] @ z + bias.values
        if count is not None:
            r += w[:, cnt] @ count.values
        pre = r[:, :, None] + (w[:, send] @ z)[:, None, :]
        if inv_dist is not None:
            pre += w[:, -1, None, None] * inv_dist
        pre.reshape(-1, n * n)[:, ::n + 1] = 0.0  # the diagonal is no pair
        if not np.isfinite(pre).all():
            raise NumericalError("non-finite values produced by op 'message_step'")
        return pre

    # sigmoid in place; exp(-x) overflows to inf below x = -709, giving exactly 0
    gate = pre_activation(params.gate_weight, params.gate_bias)
    with np.errstate(over="ignore"):
        np.exp(np.negative(gate, out=gate), out=gate)
    gate += 1.0
    np.reciprocal(gate, out=gate)
    cand = pre_activation(params.candidate_weight, params.candidate_bias)
    np.tanh(cand, out=cand)
    # tanh(0) = 0 masks the diagonal's messages and gate gradients; a zero gate
    # there also masks the candidate gradients
    gate.reshape(-1, n * n)[:, ::n + 1] = 0.0
    out = np.einsum("ivw,ivw->iv", gate, cand)
    out *= 1.0 / n

    weights = (params.gate_weight, params.candidate_weight)
    inputs = (params.gate_weight, params.gate_bias, params.candidate_weight,
              params.candidate_bias, state, *(t for t in (x, count) if t is not None))

    def rule(g):
        g_n = g * (1.0 / n)
        # per pair, d(message)/d(pre-activation); the receiver's output
        # gradient g_n[:, v] scales every pair (v, w)
        d_gate = 1.0 - gate
        d_gate *= gate
        d_gate *= cand
        d_cand = cand * cand
        np.subtract(1.0, d_cand, out=d_cand)
        d_cand *= gate
        grads, d_z, d_count = [], 0.0, 0.0
        for weight, d_pre in zip(weights, (d_gate, d_cand)):
            w = weight.values
            d_r = g_n * np.einsum("ivw->iv", d_pre)
            d_s = np.einsum("iv,ivw->iw", g_n, d_pre)
            d_b = d_r.sum(axis=1, keepdims=True)
            d_w = np.zeros_like(w)
            d_w[:, recv] = d_r @ z.T
            d_w[:, send] = d_s @ z.T
            d_z = d_z + w[:, recv].T @ d_r + w[:, send].T @ d_s
            if count is not None:
                d_w[:, cnt] = d_b @ count.values.T
                d_count = d_count + w[:, cnt].T @ d_b
            if inv_dist is not None:
                d_w[:, -1] = np.einsum("iv,iv->i", g_n,
                                       np.einsum("ivw,vw->iv", d_pre, inv_dist))
            grads += [d_w, d_b]
        grads.append(d_z if x is None else d_z[cfg.atom_dim:])
        if x is not None:
            grads.append(d_z[:cfg.atom_dim])
        if count is not None:
            grads.append(d_count)
        return tuple(grads)

    return ad._result(graph, "message_step", inputs, out, rule)


def readout(graph: Graph | None, state: Tensor, params: ModelParams) -> Tensor:
    """Mean hidden vector through the three-layer ReLU MLP; returns [1, 1]."""
    n = state.cols
    mean = ad.scale(graph, ad.matmul(graph, state, ad.constant(np.ones((n, 1)))), 1.0 / n)
    (w0, b0), (w1, b1), (w2, b2) = params.mlp
    hidden1 = ad.relu(graph, ad.linear(graph, w0, b0, mean))
    hidden2 = ad.relu(graph, ad.linear(graph, w1, b1, hidden1))
    return ad.linear(graph, w2, b2, hidden2)


def forward(graph: Graph | None, molecule: Molecule, params: ModelParams, cfg: ModelConfig,
            vocabulary: Sequence[str], encoding: MoleculeEncoding | None = None) -> Tensor:
    """Full prediction for one molecule, in normalized target space.

    Hidden states start at zero. A :class:`NumericalError` names the molecule
    and the recursion step.
    """
    enc = encoding or MoleculeEncoding(molecule, vocabulary, cfg)
    where = "input embeddings"
    try:
        x, count = _input_blocks(graph, enc, params, cfg)
        state = ad.constant(np.zeros((cfg.hidden_dim, enc.n)))
        for k in range(cfg.steps):
            where = f"step {k}"
            state = message_step(graph, params, cfg, x, state, count, enc.inv_dist)
        where = "readout"
        return readout(graph, state, params)
    except NumericalError as err:
        raise NumericalError(f"molecule {enc.mol_id}, {where}: {err}") from err
