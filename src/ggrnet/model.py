"""Gated graph recursive network over complete directed molecular graphs.

Per recursion step, every ordered atom pair (receiver, sender) contributes a
gated message built from the pair's input embeddings, current hidden
vectors, the molecule-size embedding, and the reciprocal pair distance; the
receiver's next hidden vector is the message sum divided by the atom count.
One weight set is shared across all steps, and the input embeddings re-enter
the message at every step. The readout averages the final hidden vectors and
applies a three-layer ReLU MLP down to a scalar.

A batch of molecules runs as one disjoint union: the atoms of all molecules
are the columns of one ``[hidden, ΣN]`` state, molecule after molecule, and
every recorded op of a forward pass covers the whole batch. Gate and
candidate are affine in the concatenated pair input, so each splits by block
into a receiver term and a sender term, each one ``[ΣN, hidden]`` product
with the atom columns of the batch, plus the count term (each atom carries
its molecule's count embedding, picked by a one-hot matmul) and the distance
weight times the molecule's ``[N, N]`` inverse-distance matrix. Pairs exist
only within a molecule, so inside the step each molecule gets its own
``[N, N, hidden]`` pre-activation grid (receiver, sender, hidden innermost),
whose diagonal is masked out. Each step is one recorded op with a
hand-written backward (:func:`message_step`) that reduces the grids molecule
by molecule and forms the weight gradients once per batch. The readout
averages each molecule's columns with one matmul and runs the MLP on the
``[mlp, B]`` block, one column per molecule. A single molecule is a batch of
one (:func:`forward`). The constant per-molecule structure (element indices,
inverse distances) is precomputed once in :class:`MoleculeEncoding` and
reused across steps and calls.
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
    "forward_batch",
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

    Atoms are in file order: ``elements`` holds each atom's vocabulary index,
    and ``inv_dist`` is the ``[N, N]`` matrix of reciprocal pair distances,
    receiver by sender, with a zero diagonal (``None`` when the distance
    feature is off). The molecule's message grid, ``[N, N, hidden]``, is
    indexed the same way and holds every ordered pair once; its diagonal is
    not a pair and is masked. For a single-atom molecule there are no pairs
    and the hidden state stays at zero.
    """

    def __init__(self, molecule: Molecule, vocabulary: Sequence[str], cfg: ModelConfig):
        self.mol_id = molecule.mol_id
        self.n = molecule.natoms
        self.elements = np.array(element_indices(molecule.symbols, vocabulary), dtype=np.intp)
        self.inv_dist = (inverse_distance_matrix(molecule.coords, cfg.distance_epsilon)
                         if cfg.use_distance_feature else None)


def _onehot(rows: int, indices: np.ndarray) -> Tensor:
    """``[rows, len(indices)]`` constant with a one in row ``indices[j]`` of column j."""
    out = np.zeros((rows, len(indices)))
    out[indices, np.arange(len(indices))] = 1.0
    return ad.constant(out)


def _input_blocks(graph: Graph | None, encodings: Sequence[MoleculeEncoding],
                  params: ModelParams, cfg: ModelConfig) -> tuple[Tensor | None, Tensor | None]:
    """Step-invariant message inputs of every atom of the batch: the atom
    embeddings ``[atom, ΣN]`` and the count embedding of each atom's molecule
    ``[count, ΣN]``; ``None`` for a feature switched off."""
    x = count = None
    if cfg.use_atom_embedding:
        onehot = _onehot(params.atom_embedding.rows,
                         np.concatenate([enc.elements for enc in encodings]))
        x = ad.matmul(graph, ad.transpose(graph, params.atom_embedding), onehot)
    if cfg.use_count_feature:
        rows = [min(enc.n, params.max_atom_count) - 1 for enc in encodings]
        onehot = _onehot(params.max_atom_count, np.repeat(rows, [enc.n for enc in encodings]))
        count = ad.matmul(graph, ad.transpose(graph, params.count_embedding), onehot)
    return x, count


class _GridError(NumericalError):
    """A non-finite pre-activation in the grid of the batch's molecule ``index``."""

    def __init__(self, index: int):
        super().__init__("non-finite values produced by op 'message_step'")
        self.index = index


def message_step(graph: Graph | None, params: ModelParams, cfg: ModelConfig,
                 x: Tensor | None, state: Tensor, count: Tensor | None,
                 sizes: Sequence[int], inv_dist: Sequence[np.ndarray] | None) -> Tensor:
    """One recursion step of a batch as one recorded op: the next state ``[hidden, ΣN]``.

    Molecule k owns the ``sizes[k]`` atom columns after those of molecules
    0..k-1. ``x`` is ``[atom, ΣN]``, ``count`` ``[count, ΣN]`` and
    ``inv_dist[k]`` molecule k's ``[n, n]`` matrix with a zero diagonal;
    ``None`` marks a feature switched off, whose weight block is skipped and
    gets a zero gradient. For gate and candidate alike, with ``z = [x;
    state]``, pair (v, w) of a molecule has the pre-activation ``R[v] + S[w]
    + w_d * inv_dist[v, w]``, where ``R = (W_r z + W_cnt count + b)ᵀ`` and
    ``S = (W_s z)ᵀ`` are ``[ΣN, hidden]`` products with column blocks of the
    weight, one matmul each for the whole batch. Each molecule's
    ``[n, n, hidden]`` grids (receiver, sender, hidden) give the messages
    ``sigmoid(gate) * tanh(candidate)``, diagonal masked, summed over senders
    and divided by n. Raises a :class:`NumericalError` naming the molecule's
    batch index if any pre-activation is non-finite, which the saturating
    gates would hide.
    """
    half = cfg.atom_dim + cfg.hidden_dim          # receiver columns; sender ones follow
    lo = 0 if x is not None else cfg.atom_dim     # first used column within each half
    recv, send = slice(lo, half), slice(half + lo, 2 * half)
    cnt = slice(2 * half, 2 * half + cfg.count_dim)
    z = state.values if x is None else np.concatenate((x.values, state.values))
    bounds = np.cumsum([0, *sizes]).tolist()
    inv_n = np.repeat([1.0 / n for n in sizes], sizes)[:, None]

    def atom_terms(weight: Tensor, bias: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w = weight.values
        r = z.T @ w[:, recv].T
        r += bias.values.T
        if count is not None:
            r += count.values.T @ w[:, cnt].T
        return r, z.T @ w[:, send].T, w[:, -1]

    def grid(k: int, r: np.ndarray, s: np.ndarray, w_d: np.ndarray) -> np.ndarray:
        a, b = bounds[k], bounds[k + 1]
        if inv_dist is None:
            pre = r[a:b, None, :] + s[None, a:b, :]
        else:
            pre = np.multiply.outer(inv_dist[k], w_d)
            pre += r[a:b, None, :]
            pre += s[None, a:b, :]
        pre.reshape((b - a) ** 2, -1)[::b - a + 1] = 0.0  # the diagonal is no pair
        if not np.isfinite(pre).all():
            raise _GridError(k)
        return pre

    gate_terms = atom_terms(params.gate_weight, params.gate_bias)
    cand_terms = atom_terms(params.candidate_weight, params.candidate_bias)
    out = np.empty((len(inv_n), cfg.hidden_dim))
    grids = []
    for k, n in enumerate(sizes):
        # sigmoid in place; exp(-x) overflows to inf below x = -709, giving exactly 0
        gate = grid(k, *gate_terms)
        with np.errstate(over="ignore"):
            np.exp(np.negative(gate, out=gate), out=gate)
        gate += 1.0
        np.reciprocal(gate, out=gate)
        cand = grid(k, *cand_terms)
        np.tanh(cand, out=cand)
        # tanh(0) = 0 masks the diagonal's messages and gate gradients; a zero
        # gate there also masks the candidate gradients
        gate.reshape(n * n, -1)[::n + 1] = 0.0
        np.einsum("vwi,vwi->vi", gate, cand, out=out[bounds[k]:bounds[k + 1]])
        if graph is not None:
            grids.append((gate, cand))
        del gate, cand                            # without a graph, free the grids now
    out *= inv_n

    weights = (params.gate_weight, params.candidate_weight)
    inputs = (params.gate_weight, params.gate_bias, params.candidate_weight,
              params.candidate_bias, state, *(t for t in (x, count) if t is not None))

    def rule(g):
        # the receiver's output gradient g[:, v] / n scales every pair (v, w)
        g_n = g.T * inv_n
        d_r = [np.empty_like(g_n), np.empty_like(g_n)]   # gate, candidate: [ΣN, hidden]
        d_s = [np.empty_like(g_n), np.empty_like(g_n)]
        d_wd = [0.0, 0.0]
        for k, (gate, cand) in enumerate(grids):
            a, b = bounds[k], bounds[k + 1]
            # per pair, d(message)/d(pre-activation) of gate and of candidate
            d_gate = 1.0 - gate
            d_gate *= gate
            d_gate *= cand
            d_gate *= g_n[a:b, None, :]
            d_cand = cand * cand
            np.subtract(1.0, d_cand, out=d_cand)
            d_cand *= gate
            d_cand *= g_n[a:b, None, :]
            for j, d_pre in enumerate((d_gate, d_cand)):
                d_pre.sum(axis=1, out=d_r[j][a:b])
                d_pre.sum(axis=0, out=d_s[j][a:b])
                if inv_dist is not None:
                    d_wd[j] = d_wd[j] + inv_dist[k].ravel() @ d_pre.reshape((b - a) ** 2, -1)
        grads, d_z, d_count = [], 0.0, 0.0
        for weight, dr, ds, dwd in zip(weights, d_r, d_s, d_wd):
            w = weight.values
            d_w = np.zeros_like(w)
            d_w[:, recv] = dr.T @ z.T
            d_w[:, send] = ds.T @ z.T
            d_z = d_z + w[:, recv].T @ dr.T + w[:, send].T @ ds.T
            if count is not None:
                d_w[:, cnt] = dr.T @ count.values.T
                d_count = d_count + w[:, cnt].T @ dr.T
            if inv_dist is not None:
                d_w[:, -1] = dwd
            grads += [d_w, dr.sum(axis=0)[:, None]]
        grads.append(d_z if x is None else d_z[cfg.atom_dim:])
        if x is not None:
            grads.append(d_z[:cfg.atom_dim])
        if count is not None:
            grads.append(d_count)
        return tuple(grads)

    return ad._result(graph, "message_step", inputs, out.T, rule)


def readout(graph: Graph | None, state: Tensor, params: ModelParams,
            sizes: Sequence[int]) -> Tensor:
    """Per-molecule mean hidden vector through the three-layer ReLU MLP.

    ``state`` holds the atom columns of molecules of ``sizes`` atoms each, in
    order; one matmul with the ``[ΣN, B]`` matrix of 1/n averages each
    molecule's columns. Returns the ``[1, B]`` row of predictions.
    """
    molecule = np.repeat(np.arange(len(sizes)), sizes)
    pool = np.zeros((state.cols, len(sizes)))
    pool[np.arange(state.cols), molecule] = 1.0 / np.asarray(sizes, dtype=float)[molecule]
    mean = ad.matmul(graph, state, ad.constant(pool))
    (w0, b0), (w1, b1), (w2, b2) = params.mlp
    hidden1 = ad.relu(graph, ad.linear(graph, w0, b0, mean))
    hidden2 = ad.relu(graph, ad.linear(graph, w1, b1, hidden1))
    return ad.linear(graph, w2, b2, hidden2)


def forward_batch(graph: Graph | None, encodings: Sequence[MoleculeEncoding],
                  params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Predictions ``[1, B]`` for a batch of encoded molecules, in normalized
    target space.

    Hidden states start at zero. A :class:`NumericalError` names the
    molecule (or, where no single one is to blame, the batch) and the
    recursion step.
    """
    sizes = [enc.n for enc in encodings]
    where = "input embeddings"
    try:
        x, count = _input_blocks(graph, encodings, params, cfg)
        inv_dist = [enc.inv_dist for enc in encodings] if cfg.use_distance_feature else None
        state = ad.constant(np.zeros((cfg.hidden_dim, sum(sizes))))
        for k in range(cfg.steps):
            where = f"step {k}"
            state = message_step(graph, params, cfg, x, state, count, sizes, inv_dist)
        where = "readout"
        return readout(graph, state, params, sizes)
    except _GridError as err:
        raise NumericalError(f"molecule {encodings[err.index].mol_id}, {where}: {err}") from err
    except NumericalError as err:
        names = (f"molecule {encodings[0].mol_id}" if len(encodings) == 1 else
                 f"molecules ({', '.join(enc.mol_id for enc in encodings)})")
        raise NumericalError(f"{names}, {where}: {err}") from err


def forward(graph: Graph | None, molecule: Molecule, params: ModelParams, cfg: ModelConfig,
            vocabulary: Sequence[str], encoding: MoleculeEncoding | None = None) -> Tensor:
    """Full prediction ``[1, 1]`` for one molecule: a batch of one."""
    enc = encoding or MoleculeEncoding(molecule, vocabulary, cfg)
    return forward_batch(graph, [enc], params, cfg)
