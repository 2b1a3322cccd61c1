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
into a receiver term and a sender term, each a ``[ΣN, hidden]`` product with
the atom columns of the batch, plus the count term (each atom carries its
molecule's count embedding, a row gathered from the table) and the distance
weight times the molecule's ``[N, N]`` inverse-distance matrix. Pairs exist
only within a molecule, so each molecule gets its own ``[2, N, N, hidden]``
pre-activation grid (gate and candidate, receiver, sender, hidden
innermost), whose diagonal is masked out.

The whole recursion is one recorded op, :func:`message_step`, which reads
its inputs from the batch's encodings and the embedding tables itself. The
embedding, count and bias parts of the terms are the same at every step (the
skip connections), so they are formed once per batch, and a step adds only
the hidden-state product. Each grid is built by one stacked BLAS product of
the molecule's constant ``[N, N, 2]`` pair matrix ``[inv_dist | 1]`` with
per-kind, per-receiver ``[2, hidden]`` right-hand sides ``[w_d; R[v]]``,
which forms distance and receiver terms together, and one in-place addition
of both sender terms. Overflow is checked on a per-molecule bound of the
terms rather than on every grid entry. The op's hand-written backward runs
back-propagation through time: it walks the steps in reverse, reduces each
molecule's grids to per-atom adjoints, and forms each weight gradient once
per batch from the adjoints of all steps; the embedding gradients are
scatter-added into the tables' gradients. The op carves its batch-sized
arrays out of one flat workspace that outlives the batch, so the next batch
reuses memory that is already mapped instead of faulting it in afresh. Both
modes build each molecule's grid in turn into one slot sized for the
largest molecule. A recorded recursion activates into grids of its own,
which it keeps there with every step's input state and the per-step
adjoints, and hands the workspace back at the end of its backward; a
recursion without a graph activates in place and hands the workspace back
when it returns. A no-grad recursion can also run replicas of the batch in
lockstep over a leading axis, each with one tensor's values replaced, as
the gradient check does; a stage that does not read the replaced tensor
runs once for all replicas.

The whole readout is one op too, :func:`readout`, with a hand-written
backward: each molecule's mean is a segment sum of its columns, and the MLP
runs one matrix-vector product per molecule and layer, stacked over a
leading replica axis, so the replicas of a no-grad pass are read out in one
call. No atom's terms and no molecule's readout come from a product whose
kernel depends on the rest of the batch, so a molecule's prediction has
the same bits in any batch. A single molecule is a batch of
one (:func:`forward`). The constant per-molecule structure (element indices,
inverse distances) is precomputed in :class:`MoleculeEncoding`, which every
step and call can share.
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
        if not 0 < self.distance_epsilon < math.inf:  # NaN fails too
            raise ConfigError(f"model.distance_epsilon must be finite and > 0, "
                              f"got {self.distance_epsilon}")

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
        pairs = [(name, getattr(self, name)) for name in _RECURSION_TENSORS]
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
        """A snapshot of the values (each :class:`Tensor` copies its own) as
        constants, so it allocates no gradient buffers."""
        return ModelParams.from_named({name: ad.constant(t.values, t.name)
                                       for name, t in self.named()})

    @classmethod
    def from_named(cls, tensors: Mapping[str, Tensor]) -> "ModelParams":
        """Inverse of :meth:`named`: tensors keyed by their :func:`param_shapes` name."""
        core = {name: t for name, t in tensors.items() if not name.startswith("readout_")}
        layers = sum(name.startswith("readout_w") for name in tensors)
        return cls(**core, mlp=[(tensors[f"readout_w{i}"], tensors[f"readout_b{i}"])
                                  for i in range(layers)])


# the tensors that the recursion reads, in ModelParams.named order
_RECURSION_TENSORS = tuple(f.name for f in fields(ModelParams) if f.name != "mlp")


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


# The spare workspace of the recursion: at most one flat float64 buffer.
# A message_step takes it (or a new, larger one) and gives it back when it
# returns, or, when recorded, as the last act of its backward, so no two
# calls or graphs hold the same buffer; a call that raises, or a graph that
# is dropped unreplayed, takes its buffer with it.
_spare: list[np.ndarray] = []


def _take_workspace(size: int) -> np.ndarray:
    """A flat float64 buffer of at least ``size`` entries: the spare one if it
    is large enough, else a new one (a smaller spare is freed first)."""
    if _spare and _spare[-1].size >= size:
        return _spare.pop()
    _spare.clear()
    return np.empty(size)


def _give_workspace(buf: np.ndarray) -> None:
    """Keep ``buf`` as the spare, unless the spare kept is larger."""
    if not _spare or _spare[-1].size < buf.size:
        _spare[:] = [buf]


def release_workspace() -> None:
    """Free the spare workspace; the next recursion allocates a new one."""
    _spare.clear()


def _carver(buf: np.ndarray):
    """``carve(shape)``: consecutive views of the flat ``buf``, one per call."""
    offset = 0

    def carve(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal offset
        size = math.prod(shape)
        view = buf[offset:offset + size].reshape(shape)
        offset += size
        return view

    return carve


def _workspace_size(cfg: ModelConfig, sizes: Sequence[int], replicas: int = 1,
                    recording: bool = False) -> int:
    """Entries of the workspace of a :func:`message_step` call on molecules of
    ``sizes`` atoms: the pair matrices, which all replicas share; per replica,
    the stacked weights, fixed and terms, the right-hand sides, the grid slot
    and the states; and, when recording, every step's gate and candidate grids
    and the per-step adjoints."""
    hidden, steps, atoms = cfg.hidden_dim, cfg.steps, sum(sizes)
    grids = [n * n * hidden for n in sizes]
    size = 2 * sum(n * n for n in sizes) + replicas * (
        2 * hidden * cfg.concat_dim + 12 * atoms * hidden + 2 * max(grids)
        + (steps if recording else 1) * atoms * hidden)
    if recording:
        size += steps * atoms * 4 * hidden + 2 * steps * sum(grids)
    return size


def _replica_reader(graph: Graph | None, params: ModelParams,
                    replicas: tuple[str, np.ndarray] | None):
    """``value(name)``: the values of parameter tensor ``name`` with a leading
    replica axis: the replicas' ``[R, ...]`` if they replace it, else
    ``[1, ...]``. Replicas in a recorded call raise a :class:`ValueError`, and
    so do replicas that name no parameter tensor or whose values are not
    ``(R, *its shape)`` with R >= 1, naming both."""
    tensors = dict(params.named())
    if replicas is not None:
        if graph is not None:
            raise ValueError("a recorded call takes no replicas")
        name, values = replicas
        shape = np.shape(values)
        if name not in tensors:
            raise ValueError(f"replicas of {name!r} (values of shape {shape}): no parameter "
                             f"tensor has that name, only {', '.join(tensors)}")
        if len(shape) != 3 or shape[0] < 1 or shape[1:] != tensors[name].shape:
            raise ValueError(f"replicas of {name!r}: values of shape {shape}, expected "
                             f"(R, {', '.join(map(str, tensors[name].shape))}) with R >= 1")

    def value(name: str) -> np.ndarray:
        if replicas is not None and replicas[0] == name:
            return replicas[1]
        return tensors[name].values[None]

    return value


def message_step(graph: Graph | None, params: ModelParams, cfg: ModelConfig,
                 encodings: Sequence[MoleculeEncoding], state: np.ndarray | None = None,
                 replicas: tuple[str, np.ndarray] | None = None) -> Tensor | np.ndarray:
    """All ``cfg.steps`` recursion steps of a batch as one recorded op: the
    final state ``[hidden, ΣN]``.

    Molecule k of ``encodings`` owns its ``n`` atom columns after those of
    molecules 0..k-1 and is named by its ``mol_id`` in errors. The op reads
    the step-invariant inputs itself: ``x``, each atom's embedding row;
    ``count``, the count-embedding row of its molecule (the last row for
    molecules larger than the table); and each molecule's ``[n, n]``
    ``inv_dist``. A feature that ``cfg`` switches off
    has no input, and its weight block is skipped and gets a zero gradient.
    The recursion starts from ``state`` ``[hidden, ΣN]`` (zero if not
    given), which gets no gradient.

    ``replicas = (name, values)`` runs the batch in one no-grad call, in
    which replica r reads ``values[r]`` in place of parameter tensor
    ``name``'s values and shares every other tensor (:func:`_replica_reader`
    checks them). Every array that the parameters feed carries a leading
    replica axis, of length R when the recursion reads ``name`` (an
    embedding table, or a gate or candidate weight or bias), else of length
    one, since all replicas then share one recursion. So each numpy call of
    the step loop covers all replicas: the terms are stacked products, each
    molecule's grids are ``[R, 2, n, n, hidden]``, and the bound below is
    checked per replica and molecule. The call returns the final states as
    one ``[R, hidden, ΣN]`` array (``[1, hidden, ΣN]`` for a readout
    tensor), tested for finiteness once; each ``[hidden, ΣN]`` slice has the
    bits and the layout of a call with its values written into the live
    tensor.

    For gate and candidate alike, pair (v, w) of a molecule has the
    pre-activation ``R[v] + S[w] + w_d * inv_dist[v, w]``, with the receiver
    term ``R = (W_r,x x + W_cnt count + b + W_r,h h)ᵀ`` and the sender term
    ``S = (W_s,x x + W_s,h h)ᵀ``. Only the ``h`` products change from step to
    step, so the rest of all four terms is one ``[ΣN, 4 hidden]`` block formed
    once per batch, and each step adds one product of the state with the four
    hidden-state blocks stacked. The block's embedding and count parts are
    products with the whole tables, gathered per atom, whose shapes no batch
    changes; the state product takes C-contiguous operands (the hidden-state
    blocks are stored transposed), with which BLAS computes every atom's row
    the same way in any batch. So a molecule's final state has the same bits
    whatever the rest of its batch. The gate's columns are stored negated, so
    the sigmoid's ``exp`` runs on the grid as built. Each molecule's
    ``[2, n, n, hidden]`` grid (gate and candidate, receiver, sender, hidden)
    gives the messages ``sigmoid(gate) * tanh(candidate)``, diagonal masked,
    summed over senders and divided by n.

    Each grid is built in the order ``(dist + R) + S``: one stacked product
    of the molecule's ``[n, n, 2]`` pair matrix ``[inv_dist | 1]`` (first
    column zero without distances) with the ``[2, n, 2, hidden]`` right-hand
    sides ``[w_d; R[v]]`` of both kinds writes ``inv_dist[v, w] w_d + R[v]``
    for every kind and receiver in one BLAS call, and one in-place addition
    adds both ``S[w]``.

    Instead of testing every grid entry, each step bounds each molecule's
    pre-activations by ``max|R| + max|S| + max|w_d| max(inv_dist)``, summed
    in the grid's order: float addition and multiplication are monotone, so
    if the bound is finite so is every entry. A molecule whose bound is not
    raises a :class:`NumericalError` naming it and the step, since the
    saturating gates would hide it; that rejects a finite grid only when one
    of the three terms exceeds about a third of the float maximum, and any
    NaN makes the bound NaN. A one-atom molecule has no pairs: it never
    raises, no grid is built for it, its state columns are +0.0 at every step
    and its per-atom adjoints are 0.

    The per-step loops repeat no step-invariant work: each molecule's views
    of its pair matrix, right-hand sides, sender terms and grid slot are made
    once per call, and one ``np.errstate`` covers all steps.

    The backward walks the steps in reverse. It overwrites each molecule's
    grids with their adjoints, reduces them to the per-atom adjoints of the
    four terms and carries the state adjoint back through the hidden-state
    blocks; a non-finite per-atom adjoint raises a :class:`NumericalError`
    naming the molecule and step. Each weight block's gradient is then one
    matmul over the columns of all steps, or over their sum for the
    step-invariant blocks. The op adds the gradients of the embedding and
    count rows to the tables' ``grad`` itself, so the tables are not inputs of
    its tape entry: each atom's adjoint row is scatter-added (``np.add.at``),
    so atoms that share a row accumulate, and a non-finite sum raises here.

    Every batch-sized array the op uses is a view of one workspace checked
    out for this call alone (:func:`_workspace_size`). Once per replica, it
    holds the stacked weight blocks (the gate's negated straight into it,
    with no temporaries), the ``[ΣN, 4 hidden]`` terms, the right-hand sides
    and one grid slot sized for the largest molecule, into which each
    molecule's grids are built in turn; the pair matrices are shared. When
    ``graph`` records, ``exp`` and ``tanh`` write each step's activations
    into grids of their own, and the workspace also holds each step's input
    state and the per-step adjoints; the backward uses the slot as scratch
    and hands the workspace back when it ends.
    Without a graph the activations stay in the slot, so inference holds one
    molecule's grid at a time, one state buffer is read and rewritten by
    every step, and the workspace is handed back when the call returns. Only
    the returned states are a fresh array.
    """
    hidden, steps = cfg.hidden_dim, cfg.steps
    half = cfg.atom_dim + hidden                  # receiver columns; sender ones follow
    recv_x, recv_h = slice(0, cfg.atom_dim), slice(cfg.atom_dim, half)
    send_x, send_h = slice(half, half + cfg.atom_dim), slice(half + cfg.atom_dim, 2 * half)
    cnt = slice(2 * half, 2 * half + cfg.count_dim)
    sizes, ids = [enc.n for enc in encodings], [enc.mol_id for enc in encodings]
    counts = np.array(sizes)
    value = _replica_reader(graph, params, replicas)
    # 1 unless the replicas replace a tensor that the recursion reads
    reps = max(len(value(name)) for name in _RECURSION_TENSORS)

    # each atom's embedding-table row, and its molecule's count-table row
    elements = rows = None
    if cfg.use_atom_embedding:
        elements = np.concatenate([enc.elements for enc in encodings])
    if cfg.use_count_feature:
        rows = np.repeat(np.minimum(counts, params.max_atom_count) - 1, counts)
    inv_dist = [enc.inv_dist for enc in encodings] if cfg.use_distance_feature else None
    bounds = np.cumsum([0, *sizes])
    edges, atoms = bounds.tolist(), int(bounds[-1])
    inv_n = np.repeat(1.0 / counts, counts)[:, None]

    gate_w, cand_w = value("gate_weight"), value("candidate_weight")

    recording = graph is not None
    grid_sizes = [n * n * hidden for n in sizes]
    work = _take_workspace(_workspace_size(cfg, sizes, reps, recording))
    carve = _carver(work)

    def stacked(*blocks) -> np.ndarray:
        """Rows of each column block: the gate's negated, then the candidate's,
        written straight into the workspace, per replica."""
        width = gate_w[:, :, blocks[0]].shape[2:]
        out = carve((reps, len(blocks), 2, hidden, *width))
        for i, c in enumerate(blocks):
            np.negative(gate_w[:, :, c], out=out[:, i, 0])
            out[:, i, 1] = cand_w[:, :, c]
        return out.reshape(reps, -1, *width)

    # the four terms' columns: [R_gate, R_cand, S_gate, S_cand]
    w_x, w_cnt, w_d = stacked(recv_x, send_x), stacked(cnt), stacked(-1)
    # the hidden-state blocks transposed, [reps, hidden, 4 hidden], so that each
    # step's product with the [ΣN, hidden] state has C-contiguous operands, with
    # which BLAS computes each atom's terms the same way in any batch (with a
    # transposed operand it took another kernel for batches of 2-6 atoms)
    w_h = carve((reps, hidden, 2, 2, hidden))
    for i, c in enumerate((recv_h, send_h)):
        np.negative(gate_w[:, :, c].transpose(0, 2, 1), out=w_h[:, :, i, 0])
        w_h[:, :, i, 1] = cand_w[:, :, c].transpose(0, 2, 1)
    w_h = w_h.reshape(reps, hidden, 4 * hidden)
    fixed = carve((reps, atoms, 4 * hidden))
    terms = carve((reps, atoms, 4 * hidden))     # every step's four terms, one buffer
    # the embedding and count parts: one product per table row, of a shape that
    # no batch changes, gathered per atom (mode="clip" writes without a
    # temporary; every index is in range)
    if elements is not None:
        np.take(np.matmul(value("atom_embedding"), w_x.transpose(0, 2, 1)), elements, axis=1,
                out=fixed, mode="clip")
    else:
        fixed.fill(0.0)
    # the gate's columns are negated, and x - b is x + (-b) to the bit
    fixed[..., :hidden] -= value("gate_bias")[:, None, :, 0]
    fixed[..., hidden:2 * hidden] += value("candidate_bias")[:, None, :, 0]
    if rows is not None:
        # terms is free until the first step
        fixed[..., :2 * hidden] += np.take(
            np.matmul(value("count_embedding"), w_cnt.transpose(0, 2, 1)), rows, axis=1,
            out=terms.reshape(-1)[:reps * atoms * 2 * hidden].reshape(reps, atoms, 2 * hidden),
            mode="clip")

    # per molecule, gate and candidate: fl(max|w_d| max(inv_dist)), added first as in the grid
    dist_bound = np.zeros((1, len(sizes), 2))
    if inv_dist is not None:
        dist_bound = (np.array([m.max() for m in inv_dist])[:, None]
                      * np.abs(w_d).reshape(reps, 1, 2, hidden).max(axis=3))
    pairless = counts < 2

    blocks = terms.reshape(reps, atoms, 4, hidden)
    # receiver v's right-hand sides [w_d; R[v]], gate's and candidate's, and
    # each molecule's [n, n, 2] pair matrix [inv_dist | 1], so that one stacked
    # product forms inv_dist[v, w] w_d + R[v] for all pairs; the distance comes
    # first, so the product is rounded before R is added, as the bound assumes
    # (an FMA-accumulating BLAS gives other bits with R first)
    rhs = carve((reps, atoms, 2, 2, hidden))
    pairs = []
    for k, n in enumerate(sizes):
        pair = carve((n, n, 2))
        pair[..., 0] = 0.0 if inv_dist is None else inv_dist[k]
        pair[..., 1] = 1.0
        pairs.append(pair)
    # each molecule's pre-activations in turn, and the backward's scratch
    slot = carve((reps * 2 * max(grid_sizes),))
    # the step-invariant views of each molecule that has pairs: its atom rows,
    # pair matrix, right-hand sides, sender terms and grids in the slot. A
    # one-atom molecule has none, so its state rows (lone) are zero at every step
    mols, lone = [], []
    for k, n in enumerate(sizes):
        a, b = edges[k], edges[k + 1]
        if n > 1:
            mols.append((k, n, a, b, pairs[k], rhs[:, a:b].transpose(0, 2, 1, 3, 4),
                         blocks[:, a:b, 2:].transpose(0, 2, 1, 3)[:, :, None],
                         slot[:reps * 2 * n * n * hidden].reshape(reps, 2, n, n, hidden)))
        else:
            lone.append(a)
    lone = np.array(lone, dtype=np.intp)
    # each step's input state, or one buffer that a step reads before it writes
    states = carve((steps if recording else 1, reps, atoms, hidden))
    states[0] = 0.0 if state is None else state.T
    grids: list[list[np.ndarray]] = []
    # exp of the negated gate overflows to inf above 709, giving a gate of exactly 0;
    # an overflow anywhere else makes the bound below raise
    with np.errstate(over="ignore"):
        for step in range(steps):
            np.matmul(states[step % len(states)], w_h, out=terms)
            terms += fixed
            # rhs is free until it is filled below
            peak = np.abs(terms.reshape(rhs.shape), out=rhs).max(axis=4)
            peak = np.maximum.reduceat(peak, bounds[:-1], axis=1)
            bound = (dist_bound + peak[:, :, 0]) + peak[:, :, 1]
            bound[:, pairless] = 0.0
            if not np.isfinite(bound).all():
                k = int(np.nonzero(~np.isfinite(bound).all(axis=2))[1][0])
                raise NumericalError(f"molecule {ids[k]}, step {step}: "
                                     f"non-finite values produced by op 'message_step'")
            rhs[:, :, :, 0] = w_d.reshape(reps, 1, 2, hidden)
            rhs[:, :, :, 1] = blocks[:, :, :2]
            # the returned states are the one array that outlives the workspace
            h = (np.empty((reps, atoms, hidden)) if step == steps - 1
                 else states[(step + 1) % len(states)])
            h[:, lone] = 0.0
            step_grids = []
            for _, n, a, b, pair, rhs_k, send, pre in mols:
                np.matmul(pair, rhs_k, out=pre)
                pre += send
                # a recorded step keeps its activations, so they go to its own grids
                out = carve(pre.shape) if recording else pre
                gate, cand = out[:, 0], out[:, 1]
                np.exp(pre[:, 0], out=gate)
                gate += 1.0
                np.reciprocal(gate, out=gate)
                # a zero gate masks the diagonal's messages and both adjoints
                gate.reshape(reps, n * n, -1)[:, ::n + 1] = 0.0
                np.tanh(pre[:, 1], out=cand)
                np.einsum("rvwi,rvwi->rvi", gate, cand, out=h[:, a:b])
                step_grids.append(out[0])
            h *= inv_n
            grids.append(step_grids)
    if not recording:
        _give_workspace(work)

    def check(adjoint: np.ndarray, step: int) -> None:
        if not np.isfinite(adjoint).all():
            row = np.flatnonzero(~np.isfinite(adjoint).all(axis=1))[0]
            k = int(np.searchsorted(bounds, row, side="right")) - 1
            raise NumericalError(f"molecule {ids[k]}, step {step}: "
                                 f"non-finite gradient in backward rule of op 'message_step'")

    def add_rows(table: Tensor, rows: np.ndarray, adjoint: np.ndarray) -> None:
        grad = np.zeros_like(table.values)
        np.add.at(grad, rows, adjoint)
        if not np.isfinite(grad).all():
            raise NumericalError(f"non-finite gradient of '{table.name}' "
                                 f"in backward rule of op 'message_step'")
        table.grad += grad

    def rule(g):
        if not grids:
            raise RuntimeError("op 'message_step' overwrites its grids in the backward, "
                               "so its graph can be back-propagated only once")
        pending = grids[:]
        grids.clear()
        g = g.T
        d_terms = carve((steps, atoms, 4 * hidden))
        d_terms[:, lone] = 0.0                    # no pairs, so no adjoints
        d_wd = np.zeros((2, hidden))
        ones = np.ones(max(sizes))
        # per molecule with pairs: its scratch, its [steps, 4, n, hidden] per-atom
        # adjoints of the four terms, and its inverse distances
        views = [(n, a, b, slot[:n * n * hidden].reshape(n, n, hidden), ones[:n],
                  d_terms[:, a:b].reshape(steps, n, 4, hidden).transpose(0, 2, 1, 3),
                  None if inv_dist is None else inv_dist[k].ravel())
                 for k, n, a, b, *_ in mols]
        for step in reversed(range(steps)):
            # the receiver's output gradient g[v] / n scales every pair (v, w)
            g_n = g * inv_n
            d = d_terms[step]
            for (n, a, b, u, ones_n, adjoints, dist), grid in zip(views, pending[step]):
                gate, cand = grid
                np.multiply(gate, g_n[a:b, None, :], out=u)
                # the grids become the adjoints of their stored pre-activations:
                # u cand (gate - 1) for the negated gate, u (1 - cand²) for the candidate
                gate -= 1.0
                gate *= u
                gate *= cand
                cand *= cand
                np.subtract(1.0, cand, out=cand)
                cand *= u
                # the [4, n, hidden] per-atom adjoints of the four terms: sums over
                # senders and over receivers, as BLAS products with ones
                np.matmul(ones_n, grid, out=adjoints[step, :2])
                adjoints[step, 2:] = (ones_n @ grid.reshape(2, n, -1)).reshape(2, n, hidden)
                if dist is not None:
                    d_wd += dist @ grid.reshape(2, n * n, hidden)
            check(d, step)
            if step > 0:
                g = d @ w_h[0].T
                check(g, step)
        # the initial state is usually zero, so its step adds nothing to the
        # hidden-state blocks
        first = 0 if states[0].any() else 1
        d_w = np.zeros((2 * hidden, cfg.concat_dim))   # rows: negated gate, candidate
        d_w_h = d_terms[first:].reshape(-1, 4 * hidden).T @ states[first:].reshape(-1, hidden)
        d_w[:, recv_h], d_w[:, send_h] = d_w_h[:2 * hidden], d_w_h[2 * hidden:]
        d_fixed = d_terms.sum(axis=0)
        d_recv = d_fixed[:, :2 * hidden]
        if elements is not None:
            d_w_x = d_fixed.T @ params.atom_embedding.values[elements]
            d_w[:, recv_x], d_w[:, send_x] = d_w_x[:2 * hidden], d_w_x[2 * hidden:]
            add_rows(params.atom_embedding, elements, d_fixed @ w_x[0])
        if rows is not None:
            d_w[:, cnt] = d_recv.T @ params.count_embedding.values[rows]
            add_rows(params.count_embedding, rows, d_recv @ w_cnt[0])
        if inv_dist is not None:
            d_w[:, -1] = d_wd.ravel()
        d_b = d_recv.sum(axis=0)[:, None]
        grads = (-d_w[:hidden], -d_b[:hidden], d_w[hidden:], d_b[hidden:])
        _give_workspace(work)                     # no view of it is read after this
        return grads

    if replicas is not None:
        if not np.isfinite(h).all():
            raise NumericalError("non-finite values produced by op 'message_step'")
        return h.transpose(0, 2, 1)
    inputs = (params.gate_weight, params.gate_bias, params.candidate_weight,
              params.candidate_bias)
    return ad._result(graph, "message_step", inputs, h[0].T, rule)


def readout(graph: Graph | None, state: Tensor | np.ndarray, params: ModelParams,
            sizes: Sequence[int], replicas: tuple[str, np.ndarray] | None = None) -> Tensor:
    """The whole readout as one op: each molecule's mean hidden vector through
    the three-layer ReLU MLP. Returns the ``[R, B]`` predictions, one row per
    replica (``R = 1`` without replicas).

    ``state`` holds the atom columns of molecules of ``sizes`` atoms each, in
    order: a :class:`Tensor` ``[hidden, ΣN]``, or, in a no-grad call, an
    array ``[S, hidden, ΣN]`` of ``S`` stacked states (a recursion tensor's
    replicas). Each molecule's mean is the segment sum of its columns
    (``np.add.reduceat``) times ``1/n``. The MLP runs one matrix-vector
    product per molecule and layer, as one stacked ``np.matmul`` of ``[R, B,
    rows, cols]`` with ``[R, B, cols, 1]``, so every molecule gets the same
    calls on the same shapes whatever the batch holds, and its prediction has
    the same bits in any batch.

    ``replicas = (name, values)`` are read as :func:`message_step` reads
    them, a readout tensor they name as a ``[R, ...]`` stack and every other
    one as ``[1, ...]``; the products broadcast, so there is one row per
    state or per replica, whichever is more. The means, every layer's
    pre-activations and the predictions sit in one array, which is tested
    for finiteness once. The hand-written backward runs batched, one product
    per weight over all molecules, and spreads each mean's adjoint back over
    the molecule's columns.
    """
    value = _replica_reader(graph, params, replicas)
    layers = [(value(f"readout_w{i}"), value(f"readout_b{i}")) for i in range(len(params.mlp))]
    states = state.values[None] if isinstance(state, Tensor) else state
    sizes = np.asarray(sizes)
    inv_n = (1.0 / sizes)[:, None]
    batch, hidden = len(sizes), states.shape[1]
    reps = max(len(states), *(len(a) for layer in layers for a in layer))
    widths = [w.shape[1] for w, _ in layers]
    # the checked part first: the means, then each layer's pre-activations,
    # the last of which are the predictions; then the activations
    checked = len(states) * batch * hidden + reps * batch * sum(widths)
    buf = np.empty(checked + reps * batch * sum(widths[:-1]))
    carve = _carver(buf)
    mean = carve((len(states), batch, hidden))
    pres = [carve((reps, batch, rows, 1)) for rows in widths]
    acts = [carve(pre.shape) for pre in pres[:-1]]
    np.add.reduceat(states.transpose(0, 2, 1), np.cumsum(sizes) - sizes, axis=1, out=mean)
    mean *= inv_n
    x = mean[..., None]
    for (w, b), pre, act in zip(layers, pres, [*acts, None]):
        np.matmul(w[:, None], x, out=pre)
        pre += b[:, None]
        if act is not None:
            x = np.maximum(pre, 0.0, out=act)

    def rule(g):
        # each layer's input, one row per molecule; an activation is positive
        # exactly where its pre-activation is, which gives the ReLU's mask
        ins = [mean[0], *(act[0, :, :, 0] for act in acts)]
        d = g.T
        grads: list[np.ndarray] = []
        for k in reversed(range(len(layers))):
            grads[:0] = [d.T @ ins[k], d.sum(axis=0)[:, None]]
            d = d @ layers[k][0][0]
            if k > 0:
                d *= ins[k] > 0.0
        d *= inv_n
        return (np.repeat(d, sizes, axis=0).T, *grads)

    inputs = (state, *(t for pair in params.mlp for t in pair))
    return ad._result(graph, "readout", inputs, pres[-1].reshape(reps, batch), rule,
                      checked=buf[:checked])


def forward_batch(graph: Graph | None, encodings: Sequence[MoleculeEncoding],
                  params: ModelParams, cfg: ModelConfig,
                  replicas: tuple[str, np.ndarray] | None = None) -> Tensor:
    """Predictions ``[R, B]`` for a batch of encoded molecules, in normalized
    target space: :func:`message_step`, then :func:`readout`. ``R`` is 1
    without replicas.

    Hidden states start at zero. A :class:`NumericalError` names the
    molecule and the recursion step, or, where no single molecule is to
    blame, the batch and the readout.

    ``replicas = (name, values)`` runs ``len(values)`` replicas of the batch
    in one no-grad call, one row of predictions each: replica r reads
    ``values[r]`` in place of parameter tensor ``name``'s values, which are
    never written, and its row has the bits of a call with ``values[r]``
    written there. Both stages get the replicas, and a stage that does not
    read ``name`` runs once for all of them: one :func:`readout` reads out a
    recursion tensor's ``[R, hidden, ΣN]`` final states as a stack, and a
    readout tensor's replicas share one recursion. :func:`_replica_reader`
    says which replicas raise a :class:`ValueError`.
    """
    # the recursion names the molecule and step of its own errors
    state = message_step(graph, params, cfg, encodings, replicas=replicas)
    try:
        return readout(graph, state, params, [enc.n for enc in encodings], replicas=replicas)
    except NumericalError as err:
        names = (f"molecule {encodings[0].mol_id}" if len(encodings) == 1 else
                 f"molecules ({', '.join(enc.mol_id for enc in encodings)})")
        raise NumericalError(f"{names}, readout: {err}") from err


def forward(graph: Graph | None, molecule: Molecule, params: ModelParams, cfg: ModelConfig,
            vocabulary: Sequence[str]) -> Tensor:
    """Full prediction ``[1, 1]`` for one molecule: a batch of one, encoded here."""
    return forward_batch(graph, [MoleculeEncoding(molecule, vocabulary, cfg)], params, cfg)
