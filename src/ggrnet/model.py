"""Gated graph recursive network over complete directed molecular graphs.

The model is one gated recursion over every ordered atom pair of a
molecule, whose messages read the input embeddings again at every step,
then a mean over atoms and a three-layer ReLU MLP down to a scalar. A batch
runs as one disjoint union of its molecules' atom rows, and a molecule's
prediction has the same bits in any batch. In this module:

- :class:`ModelConfig`, :class:`ModelParams`, :func:`param_shapes` and
  :func:`init_params`: the sizes, the trainable tensors and their seeded
  initial values;
- :class:`MoleculeEncoding`: a molecule's constant structure (element
  indices and pair matrix), built once and shared by every call;
- :func:`message_step`: the whole recursion of a batch as one recorded op
  with a hand-written backward, whose docstring states its derivation;
  :func:`_layout` lays out the workspace it carves, which the spare-workspace
  functions keep from call to call;
- :func:`readout`: the mean and the MLP as one op;
- :func:`forward_batch` and :func:`forward`: both, for a batch or for one
  molecule.
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
        try:
            if _is_bias(name):
                values = np.zeros((rows, cols))
            else:
                bound = math.sqrt(6.0 / (rows + cols))
                values = rng.uniform(-bound, bound, size=(rows, cols))
        except (MemoryError, ValueError) as err:   # numpy refuses a size it cannot hold
            raise ConfigError(f"cannot allocate parameter tensor '{name}' of shape "
                              f"({rows}, {cols}): {err}") from err
        tensors[name] = ad.parameter(values, name)
    return ModelParams.from_named(tensors)


class MoleculeEncoding:
    """Constant per-molecule structure shared by every step and every call.

    Atoms are in file order: ``elements`` holds each atom's vocabulary index,
    and ``pairs`` is the read-only ``[N, N, 2]`` matrix ``[inv_dist | 1]``,
    receiver by sender: reciprocal pair distances with a zero diagonal (all
    +0.0 when the distance feature is off), beside ones. ``max_inv_dist`` is
    the largest of them, ``pairs[..., 0].max()``, kept for the recursion's
    overflow bound; it is +0.0 without distances and for a single atom. The
    molecule's message grid, ``[N, N, hidden]``, is indexed the same way and
    holds every ordered pair once; its diagonal is not a pair and is masked.
    For a single-atom molecule there are no pairs and the hidden state stays
    at zero.
    """

    def __init__(self, molecule: Molecule, vocabulary: Sequence[str], cfg: ModelConfig):
        self.mol_id = molecule.mol_id
        self.n = n = molecule.natoms
        index = {sym: i for i, sym in enumerate(vocabulary)}
        for sym in molecule.symbols:
            if sym not in index:
                raise VocabularyError(f"molecule '{molecule.mol_id}': element '{sym}' not in "
                                      f"vocabulary {list(vocabulary)}")
        self.elements = np.array([index[sym] for sym in molecule.symbols], dtype=np.intp)
        self.pairs = np.ones((n, n, 2))
        self.pairs[..., 0] = (inverse_distance_matrix(molecule.coords, cfg.distance_epsilon)
                              if cfg.use_distance_feature else 0.0)
        self.pairs.flags.writeable = False
        self.max_inv_dist = float(self.pairs[..., 0].max())


# The spare workspace of the recursion: at most one flat float64 buffer.
# A message_step takes it (or a new, larger one) and gives it back when it
# returns, or, when recorded, as the last act of its backward, so no two
# calls or graphs hold the same buffer; a call that raises, or a graph that
# is dropped unreplayed, takes its buffer with it.
_spare: list[np.ndarray] = []


def _take_workspace(size: int) -> np.ndarray:
    """A flat float64 buffer of at least ``size`` entries: the spare one if it
    is large enough, else a new one (a smaller spare is freed first) on a
    64-byte boundary, where the grid slot starts."""
    if _spare and _spare[-1].size >= size:
        return _spare.pop()
    _spare.clear()
    try:
        raw = np.empty(size + 7)
    except (MemoryError, ValueError) as err:   # numpy refuses a size it cannot hold
        raise ConfigError(f"cannot allocate the recursion's workspace of {size} "
                          f"float64 entries: {err}") from err
    return raw[(-raw.ctypes.data % 64) // 8:][:size]


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


def _grid_pairs(sizes: Sequence[int]) -> int:
    """The ordered atom pairs, diagonal included, of the molecules with pairs
    among molecules of ``sizes`` atoms: a recorded call keeps ``2 steps
    hidden`` activations for each."""
    return sum(n * n for n in sizes if n > 1)


def _layout(cfg: ModelConfig, sizes: Sequence[int], replicas: int = 1,
            recording: bool = False, grid_pairs: int | None = None) -> list[tuple[int, ...]]:
    """The shapes of the views that a :func:`message_step` call on molecules
    of ``sizes`` atoms carves from its workspace, in carve order: the grid
    slot, sized for the largest molecule and first, on the workspace's
    64-byte boundary (off it, the grid build ran about 10% slower); the
    stacked embedding, count and distance weights; the transposed
    hidden-state blocks; the ``[R, ΣN, 4 hidden]`` slabs ``fixed``, terms and
    right-hand sides, and, recorded, the slabs that the per-step adjoints need
    beyond them; the states; and, recorded, one region for the grids of every
    step and every molecule with pairs, at least as large as the weight
    gradients of :func:`_gradient_layout`, which the backward lays over it
    once the grids are dead; ``grid_pairs`` sizes that region for so many
    pairs in place of :func:`_grid_pairs` of ``sizes``. Recorded calls have
    ``R = 1``."""
    hidden, steps, atoms = cfg.hidden_dim, cfg.steps, sum(sizes)
    layout = [(replicas * 2 * max(sizes) ** 2 * hidden,),
              (replicas, 2, 2, hidden, cfg.atom_dim),
              (replicas, 1, 2, hidden, cfg.count_dim),
              (replicas, 1, 2, hidden),
              (replicas, hidden, 2, 2, hidden),
              (3 * replicas + (max(steps, 3) - 3 if recording else 0), atoms, 4 * hidden),
              (steps - 1 if recording else 1, replicas, atoms, hidden)]
    if recording:
        pairs = _grid_pairs(sizes) if grid_pairs is None else grid_pairs
        layout.append((max(steps * 2 * hidden * pairs,
                           sum(map(math.prod, _gradient_layout(cfg)))),))
    return layout


def _gradient_layout(cfg: ModelConfig) -> list[tuple[int, ...]]:
    """The shapes of the weight gradients that a recorded backward carves
    from its grid region, in carve order: of every column, the negated
    gate's rows, then the candidate's; and the four terms' rows of the
    hidden-state and the embedding columns."""
    hidden = cfg.hidden_dim
    return [(2 * hidden, cfg.concat_dim), (4 * hidden, hidden), (4 * hidden, cfg.atom_dim)]


def _workspace_size(cfg: ModelConfig, sizes: Sequence[int], replicas: int = 1,
                    recording: bool = False, grid_pairs: int | None = None) -> int:
    """Entries of the workspace that :func:`_layout` lays out."""
    return sum(map(math.prod, _layout(cfg, sizes, replicas, recording, grid_pairs)))


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
                 encodings: Sequence[MoleculeEncoding],
                 replicas: tuple[str, np.ndarray] | None = None) -> Tensor:
    """All ``cfg.steps`` recursion steps of a batch as one recorded op, from
    zero hidden states: the final states ``[R, ΣN, hidden]``, one per replica
    (``R = 1`` without replicas).

    Molecule k of ``encodings`` owns its ``n`` atom rows after those of
    molecules 0..k-1 and is named by its ``mol_id`` in errors. The op's tape
    inputs are the tensors it reads, ``_RECURSION_TENSORS``; it gathers the
    step-invariant inputs itself: ``x``, each atom's embedding row;
    ``count``, the count-embedding row of its molecule (the last row for
    molecules larger than the table); and each molecule's read-only pair
    matrix ``enc.pairs``. A feature that ``cfg`` switches off has no input
    (distances are +0.0): its weight block gets a zero gradient, its table none.

    The forward. For gate and candidate alike, pair (v, w) of a molecule
    has the pre-activation ``R[v] + S[w] + w_d * inv_dist[v, w]``, with the
    receiver term ``R = (W_r,x x + W_cnt count + b + W_r,h h)ᵀ`` and the
    sender term ``S = (W_s,x x + W_s,h h)ᵀ``; the messages ``sigmoid(gate) *
    tanh(candidate)``, diagonal masked, summed over senders and divided by n
    give the receiver's next state. Only the ``h`` products change from step
    to step, so the rest of all four terms is one ``[ΣN, 4 hidden]`` block,
    ``fixed``, formed once per batch from products with the whole tables
    gathered per atom, and each step adds one product of the state with the
    four hidden-state blocks, stored transposed so that both operands are
    C-contiguous. Step 0 reads the zero state, so its terms are ``0 +
    fixed``, which rounds -0.0 to +0.0, with no product. No product's BLAS
    kernel depends on the batch, so a molecule's final state has the same
    bits whatever the rest of its batch. The gate's columns are stored
    negated, so the sigmoid's ``exp`` runs on the grid as built. Each
    molecule's ``[2, n, n, hidden]`` grid (gate and candidate, receiver,
    sender, hidden) is built in the order ``(dist + R) + S``: one stacked
    product of its ``[n, n, 2]`` pair matrix ``[inv_dist | 1]`` with the
    right-hand sides ``[w_d; R[v]]`` of both kinds and every receiver, then
    one in-place addition of both ``S[w]``.

    A step raises a :class:`NumericalError` naming the molecule and the step
    if and only if a pre-activation of a molecule with pairs (its masked
    diagonal included) is not finite, since the saturating gates would hide
    it; of several such molecules, in any replicas, it names the first in
    batch order. Each step bounds all pre-activations by ``(max|w_d|
    max(inv_dist) + top) + top``, summed in the grid's order, with
    ``top = max|terms|`` over all replicas and atoms: float addition and
    multiplication are monotone, so if the bound is finite so is every grid
    entry. Only in a step where it is not is each grid tested, as soon as it
    is built and before it is activated. A one-atom molecule has no pairs:
    it never raises, no grid is built for it, its state rows are +0.0 at
    every step and its per-atom adjoints are 0.

    The backward runs back-propagation through time. It walks the steps in
    reverse, overwrites each molecule's grids with their adjoints, reduces
    them to the per-atom adjoints of the four terms and carries the state
    adjoint back through the hidden-state blocks; a non-finite per-atom
    adjoint raises a :class:`NumericalError` naming the molecule and step.
    Each weight block's gradient is then one matmul over the atom rows of
    all steps (from step 1 for the hidden-state blocks, as step 0 reads
    zeros), or over their sum for the step-invariant blocks, formed in place
    in step order from +0.0. Each table's gradient is its atoms' adjoint rows
    scatter-added, so atoms that share a row accumulate; the tape raises on a
    non-finite one, naming the table. The weight products read the gathered
    rows with the one-atom molecules' zeroed, so a non-finite row that only
    they read gives no gradient. The graph can be back-propagated once.

    ``replicas = (name, values)`` runs the batch in one no-grad call, in
    which replica r reads ``values[r]`` in place of parameter tensor
    ``name``'s values and shares every other tensor (:func:`_replica_reader`
    checks them). Every array that the parameters feed carries a leading
    replica axis, of length R when the recursion reads ``name``, else of
    length one. The grids put the replica axis innermost, ``[2, n, n,
    hidden, R]``, so the replicas run as one recursion of width ``hidden
    R``, while each grid and state entry gets the operations of a call with
    one replica, in the same order: each ``[ΣN, hidden]`` slice of the
    result has the bits and the layout of a call with its values written
    into the live tensor.

    Every batch-sized array is a view of one flat workspace, laid out by
    :func:`_layout` and checked out for this call alone; each molecule's
    grids are built in turn into one slot sized for the largest molecule.
    Without a graph the activations stay in the slot, one state buffer is
    read and rewritten by every step, and the workspace is handed back when
    the call returns. A recorded call activates into grids of its own and
    keeps the input state of each step after the first, the only ones that
    the backward reads. The backward lays its per-step adjoints over the
    forward-only slabs, sums them over steps in place into the first, forms
    the weight gradients over the dead grids, and hands the workspace back
    when it ends. Only the final states are a fresh array. The weight
    gradients that the backward returns are views of the workspace it hands
    back: the tape adds them to ``.grad`` before any later call can take it.
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

    elements = rows = None
    if cfg.use_atom_embedding:
        elements = np.concatenate([enc.elements for enc in encodings])
    if cfg.use_count_feature:
        rows = np.repeat(np.minimum(counts, params.max_atom_count) - 1, counts)
    bounds = np.cumsum([0, *sizes])
    edges, atoms = bounds.tolist(), int(bounds[-1])
    inv_n = np.repeat(1.0 / counts, counts)[:, None]

    gate_w, cand_w = value("gate_weight"), value("candidate_weight")

    recording = graph is not None
    work = _take_workspace(_workspace_size(cfg, sizes, reps, recording))
    slot, w_x, w_cnt, w_d, w_h, block, states, *grid_region = map(
        _carver(work), _layout(cfg, sizes, reps, recording))

    def stacked(out: np.ndarray, *blocks) -> np.ndarray:
        """``out`` filled with the rows of each column block, the gate's
        negated, then the candidate's, per replica."""
        for i, c in enumerate(blocks):
            np.negative(gate_w[:, :, c], out=out[:, i, 0])
            out[:, i, 1] = cand_w[:, :, c]
        return out.reshape(reps, -1, *out.shape[4:])

    # the four terms' columns: [R_gate, R_cand, S_gate, S_cand]
    w_x, w_cnt, w_d = stacked(w_x, recv_x, send_x), stacked(w_cnt, cnt), stacked(w_d, -1)
    # transposed, [reps, hidden, 4 hidden], with which BLAS computes each atom's
    # terms the same way in any batch (with a transposed operand it took
    # another kernel for batches of 2-6 atoms)
    for i, c in enumerate((recv_h, send_h)):
        np.negative(gate_w[:, :, c].transpose(0, 2, 1), out=w_h[:, :, i, 0])
        w_h[:, :, i, 1] = cand_w[:, :, c].transpose(0, 2, 1)
    w_h = w_h.reshape(reps, hidden, 4 * hidden)
    fixed, terms = block[:reps], block[reps:2 * reps]
    # one product per table row, of a shape that no batch changes, gathered per
    # atom (mode="clip" writes without a temporary; every index is in range)
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

    # the batch's largest distance term, as the grids round it, for the bound
    dist_top = max(enc.max_inv_dist for enc in encodings) * float(np.abs(w_d).max())
    blocks = terms.reshape(reps, atoms, 4, hidden)
    # the distance comes first in the product, so it is rounded before R is
    # added, as the bound assumes (an FMA-accumulating BLAS gives other bits
    # with R first)
    rhs = block[2 * reps:3 * reps].reshape(atoms, 2, 2, hidden, reps)
    rhs[:, :, 0] = w_d.reshape(reps, 2, hidden).transpose(1, 2, 0)
    # per molecule with pairs: its atom rows, pair matrix, [2, n, 2, hidden R]
    # right-hand sides, [2, 1, n, hidden, R] sender terms and grids in the
    # slot, also seen as [2, n, n, hidden R] by the product
    mols = []
    for n, enc, a, b in zip(sizes, encodings, edges, edges[1:]):
        if n > 1:
            pre = slot[:2 * n * n * hidden * reps].reshape(2, n, n, hidden, reps)
            mols.append((enc.mol_id, n, a, b, enc.pairs,
                         rhs.reshape(atoms, 2, 2, -1)[a:b].transpose(1, 0, 2, 3),
                         blocks[:, a:b, 2:].transpose(2, 1, 3, 0)[:, None],
                         pre, pre.reshape(2, n, n, -1)))
    lone = bounds[:-1][counts < 2]
    grid_views = _carver(grid_region[0]) if recording else None
    grids: list[list[np.ndarray]] = []
    # exp of the negated gate overflows to inf above 709, giving a gate of exactly 0;
    # an overflow or NaN anywhere else raises once its grid is built
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            if step == 0:                         # a zero state: 0 + fixed, -0.0 included
                np.add(fixed, 0.0, out=terms)
            else:
                np.matmul(states[(step - 1) % len(states)], w_h, out=terms)
                terms += fixed
            top = max(float(terms.max()), -float(terms.min()))
            unbounded = not math.isfinite((dist_top + top) + top)
            rhs[:, :, 1] = blocks[:, :, :2].transpose(1, 2, 3, 0)
            # the returned states are the one array that outlives the workspace
            h = (np.empty((reps, atoms, hidden)) if step == steps - 1
                 else states[step % len(states)])
            h[:, lone] = 0.0
            h_t = h.transpose(1, 2, 0)            # the layout of the grids' sums
            step_grids = []
            for mol_id, n, a, b, pair, rhs_k, send, pre, wide in mols:
                np.matmul(pair, rhs_k, out=wide)
                pre += send
                if unbounded and not np.isfinite(pre).all():
                    raise NumericalError(f"molecule {mol_id}, step {step}: "
                                         f"non-finite values produced by op 'message_step'")
                out = grid_views(pre.shape) if recording else pre
                gate, cand = out
                np.exp(pre[0], out=gate)
                gate += 1.0
                np.reciprocal(gate, out=gate)
                # a zero gate masks the diagonal's messages and both adjoints
                gate.reshape(n * n, -1)[::n + 1] = 0.0
                np.tanh(pre[1], out=cand)
                np.einsum("vwir,vwir->vir", gate, cand, out=h_t[a:b])
                if recording:                     # one replica, as the backward reads it
                    step_grids.append(out[..., 0])
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

    def rule(g):
        if not grids:
            raise RuntimeError("op 'message_step' overwrites its grids in the backward, "
                               "so its graph can be back-propagated only once")
        pending = grids[:]
        grids.clear()
        g = g[0]
        # the per-step adjoints, over the forward-only slabs, which are dead now
        d_terms = block[:steps]
        d_terms[:, lone] = 0.0                    # no pairs, so no adjoints
        d_wd = np.zeros((2, hidden))
        ones = np.ones(max(sizes))
        # per molecule with pairs: its scratch, its [steps, 4, n, hidden] per-atom
        # adjoints of the four terms, and its distances, copied contiguous (same BLAS kernel)
        views = [(n, a, b, slot[:n * n * hidden].reshape(n, n, hidden), ones[:n],
                  d_terms[:, a:b].reshape(steps, n, 4, hidden).transpose(0, 2, 1, 3),
                  pair[..., 0].ravel() if cfg.use_distance_feature else None)
                 for _, n, a, b, pair, *_ in mols]
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
        d_w, d_w_h, d_w_x = map(_carver(grid_region[0]), _gradient_layout(cfg))
        d_w.fill(0.0)                             # a switched-off feature's columns stay 0
        np.matmul(d_terms[1:].reshape(-1, 4 * hidden).T, states.reshape(-1, hidden), out=d_w_h)
        d_w[:, recv_h], d_w[:, send_h] = d_w_h[:2 * hidden], d_w_h[2 * hidden:]
        # the sum over steps, in place, in the order of d_terms.sum(axis=0),
        # which starts from +0.0
        d_fixed = d_terms[0]
        d_fixed += 0.0
        for adjoint in d_terms[1:]:
            d_fixed += adjoint
        d_recv = d_fixed[:, :2 * hidden]
        d_x = d_count = None                      # the tables' gradients
        # the gathered rows, with the lone atoms' zeroed: their adjoints are 0,
        # and 0 times a non-finite row they alone read would reach d_w
        if elements is not None:
            x = params.atom_embedding.values[elements]
            x[lone] = 0.0
            np.matmul(d_fixed.T, x, out=d_w_x)
            d_w[:, recv_x], d_w[:, send_x] = d_w_x[:2 * hidden], d_w_x[2 * hidden:]
            d_x = np.zeros_like(params.atom_embedding.values)
            np.add.at(d_x, elements, d_fixed @ w_x[0])
        if rows is not None:
            count = params.count_embedding.values[rows]
            count[lone] = 0.0
            d_w[:, cnt] = d_recv.T @ count
            d_count = np.zeros_like(params.count_embedding.values)
            np.add.at(d_count, rows, d_recv @ w_cnt[0])
        if cfg.use_distance_feature:
            d_w[:, -1] = d_wd.ravel()
        d_b = d_recv.sum(axis=0)[:, None]
        np.negative(d_w[:hidden], out=d_w[:hidden])   # the gate's rows, as stored
        np.negative(d_b[:hidden], out=d_b[:hidden])
        _give_workspace(work)
        return d_x, d_count, d_w[:hidden], d_b[:hidden], d_w[hidden:], d_b[hidden:]

    inputs = tuple(getattr(params, name) for name in _RECURSION_TENSORS)
    return ad._result(graph, "message_step", inputs, h, rule)


def readout(graph: Graph | None, state: Tensor, params: ModelParams,
            sizes: Sequence[int], replicas: tuple[str, np.ndarray] | None = None) -> Tensor:
    """The whole readout as one op: each molecule's mean hidden vector through
    the three-layer ReLU MLP. Returns the ``[R, B]`` predictions, one row per
    replica (``R = 1`` without replicas).

    ``state`` is :func:`message_step`'s output, ``[S, ΣN, hidden]``: the atom
    rows of molecules of ``sizes`` atoms each, in order, for ``S`` stacked
    states (``S = 1`` but for a recursion tensor's replicas). Each
    molecule's mean is the segment sum of its rows (``np.add.reduceat``)
    times ``1/n``. The MLP runs one matrix-vector product per molecule and
    layer, as one stacked ``np.matmul`` of ``[R, B, rows, cols]`` with ``[R,
    B, cols, 1]``, so every molecule gets the same calls on the same shapes
    whatever the batch holds, and its prediction has the same bits in any
    batch.

    ``replicas = (name, values)`` are read as :func:`message_step` reads
    them, a readout tensor they name as a ``[R, ...]`` stack and every other
    one as ``[1, ...]``; the products broadcast, so there is one row per
    state or per replica, whichever is more. The means, every layer's
    pre-activations and the predictions sit in one array, which is tested
    for finiteness once. The hand-written backward runs batched, one product
    per weight over all molecules, and spreads each mean's adjoint back over
    the molecule's rows.
    """
    value = _replica_reader(graph, params, replicas)
    layers = [(value(f"readout_w{i}"), value(f"readout_b{i}")) for i in range(len(params.mlp))]
    states = state.values
    sizes = np.asarray(sizes)
    inv_n = (1.0 / sizes)[:, None]
    batch, hidden = len(sizes), states.shape[2]
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
    np.add.reduceat(states, np.cumsum(sizes) - sizes, axis=1, out=mean)
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
        return (np.repeat(d, sizes, axis=0)[None], *grads)

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
    recursion tensor's ``[R, ΣN, hidden]`` final states as a stack, and a
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
