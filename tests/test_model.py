import functools
import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ggrnet.autodiff as ad
import ggrnet.gradcheck as gradcheck
import ggrnet.model as model
from ggrnet.data import Molecule, inverse_distance_matrix
from ggrnet.errors import ConfigError, NumericalError, VocabularyError
from ggrnet.gradcheck import DEFAULT_CHECK_CONFIG, gradient_check, run_gradcheck
from ggrnet.model import (
    ModelConfig,
    MoleculeEncoding,
    forward,
    forward_batch,
    init_params,
    message_step,
    readout,
)
from ggrnet.synth import random_molecule, random_molecules
from ggrnet.training import mse_loss
from oracle import straightline_forward, straightline_step

VOCAB = ("H", "C", "N", "O")
SMALL = ModelConfig(atom_dim=3, count_dim=2, hidden_dim=4, mlp_dim=5, steps=3)


def small_params(seed=0, max_atoms=8):
    return init_params(SMALL, len(VOCAB), max_atoms, seed)


def permuted(mol, perm):
    return Molecule(mol.mol_id, tuple(mol.symbols[i] for i in perm),
                    mol.coords[list(perm)], mol.targets)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


# ---------------------------------------------------------------------------
# configuration and initialization


def test_config_concat_dim():
    assert ModelConfig().concat_dim == 351
    assert SMALL.concat_dim == 2 * 3 + 2 * 4 + 2 + 1


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(steps=0)
    with pytest.raises(ConfigError):
        ModelConfig(hidden_dim=0)
    with pytest.raises(ConfigError):
        ModelConfig(distance_epsilon=0.0)


def test_init_deterministic():
    a = init_params(SMALL, 4, 8, seed=5)
    b = init_params(SMALL, 4, 8, seed=5)
    for (name_a, ta), (name_b, tb) in zip(a.named(), b.named()):
        assert name_a == name_b
        assert np.array_equal(ta.values, tb.values)
    c = init_params(SMALL, 4, 8, seed=6)
    assert not np.array_equal(a.gate_weight.values, c.gate_weight.values)


def test_parameter_count_closed_form():
    # defaults with vocab 5 and max atom count 30, counted from first principles
    cfg = ModelConfig()
    params = init_params(cfg, 5, 30, seed=0)
    d_in = 2 * 50 + 2 * 100 + 50 + 1
    expected = (5 * 50                       # atom embeddings
                + 30 * 50                    # count embeddings
                + 2 * (100 * d_in + 100)     # gate + candidate affine maps
                + (100 * 100 + 100)          # readout layer 1
                + (100 * 100 + 100)          # readout layer 2
                + (1 * 100 + 1))             # readout output layer
    assert params.parameter_count() == expected


def test_parameter_count_independent_of_steps():
    shallow = init_params(ModelConfig(steps=5), 4, 10, seed=0)
    deep = init_params(ModelConfig(steps=50), 4, 10, seed=0)
    assert shallow.parameter_count() == deep.parameter_count()
    assert [(n, t.shape) for n, t in shallow.named()] == \
           [(n, t.shape) for n, t in deep.named()]


def test_biases_start_zero():
    params = small_params()
    assert np.array_equal(params.gate_bias.values, np.zeros((SMALL.hidden_dim, 1)))
    for _, b in params.mlp:
        assert not b.values.any()


def test_params_copy_is_a_snapshot_without_gradient_buffers():
    # a best-params snapshot allocates its values and no gradient arrays
    params = init_params(ModelConfig(), len(VOCAB), 29, seed=41)
    nbytes = sum(t.values.nbytes for t in params.tensors())
    tracemalloc.start()
    try:
        snapshot = params.copy()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nbytes <= peak < 1.1 * nbytes, (peak, nbytes)
    for (name, t), (copy_name, c) in zip(params.named(), snapshot.named()):
        assert copy_name == name == c.name and c.grad is None and not c.requires_grad
        assert c.values.tobytes() == t.values.tobytes()
        assert not np.shares_memory(c.values, t.values)


# ---------------------------------------------------------------------------
# message step


def encode(cfg, molecules):
    return [MoleculeEncoding(mol, VOCAB, cfg) for mol in molecules]


def test_an_encoding_holds_its_read_only_pair_matrix():
    mol = random_molecule(np.random.default_rng(70), 5, elements=VOCAB)
    cfg = replace(SMALL, distance_epsilon=0.5)
    pairs = MoleculeEncoding(mol, VOCAB, cfg).pairs
    expected = np.stack([inverse_distance_matrix(mol.coords, 0.5), np.ones((5, 5))], axis=2)
    assert pairs.shape == (5, 5, 2) and pairs.tobytes() == expected.tobytes()
    off = MoleculeEncoding(mol, VOCAB, replace(SMALL, use_distance_feature=False)).pairs
    assert (off[..., 0] == 0.0).all() and not np.signbit(off[..., 0]).any()
    assert off[..., 1].tobytes() == np.ones((5, 5)).tobytes()
    # every call of every step reads it, so a stray write raises
    for matrix in (pairs, off):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 1, 0] = 2.0


@pytest.mark.parametrize("distances", [True, False])
def test_an_encoding_keeps_its_largest_inverse_distance(distances):
    cfg = replace(SMALL, use_distance_feature=distances)
    rng = np.random.default_rng(74)
    for n in (1, 2, 5, 9):
        enc = MoleculeEncoding(random_molecule(rng, n, elements=VOCAB), VOCAB, cfg)
        assert np.float64(enc.max_inv_dist).tobytes() == enc.pairs[..., 0].max().tobytes()
        if n == 1 or not distances:
            # +0.0, so the bound's distance term is +0.0 as well
            assert np.float64(enc.max_inv_dist).tobytes() == np.float64(0.0).tobytes()
        else:
            assert enc.max_inv_dist > 0.0


def run_steps(params, cfg, mol, steps):
    """The ``[n, hidden]`` final state of :func:`message_step` with ``steps``
    steps from zero on ``mol`` as a batch of one."""
    return message_step(None, params, replace(cfg, steps=steps), encode(cfg, [mol])).values[0]


def oracle_steps(params, cfg, mol, steps):
    """:func:`straightline_step` applied ``steps`` times from zero, as an
    ``[n, hidden]`` array."""
    state = [[0.0] * cfg.hidden_dim for _ in range(mol.natoms)]
    for _ in range(steps):
        state = straightline_step(mol, params, cfg, VOCAB, state)
    return np.array(state)


def test_message_zero_params_gives_zeros():
    params = small_params()
    for _, t in params.named():
        t.values[:] = 0.0
    rng = np.random.default_rng(0)
    mol = random_molecule(rng, 3, elements=VOCAB)
    for steps in (1, 3):
        out = run_steps(params, SMALL, mol, steps)
        assert np.array_equal(out, np.zeros((3, SMALL.hidden_dim)))


def test_message_zero_candidate_annihilates():
    params = small_params(seed=3)
    params.candidate_weight.values[:] = 0.0
    params.candidate_bias.values[:] = 0.0
    rng = np.random.default_rng(0)
    mol = random_molecule(rng, 4, elements=VOCAB)
    for steps in (1, 3):
        out = run_steps(params, SMALL, mol, steps)
        assert np.array_equal(out, np.zeros((4, SMALL.hidden_dim)))


def test_message_scalar_hand_case():
    # one-dimensional everything, unit weights, zero biases, two atoms with
    # embedding 1, zero hidden state, count embedding 1, inverse distance 0.5:
    # both affine outputs of either pair equal 1+0+1+0+1+0.5 = 3.5
    cfg = ModelConfig(atom_dim=1, count_dim=1, hidden_dim=1, mlp_dim=1, steps=1)
    params = init_params(cfg, 2, 4, seed=0)
    params.gate_weight.values[:] = 1.0
    params.candidate_weight.values[:] = 1.0
    params.atom_embedding.values[:] = 1.0
    params.count_embedding.values[:] = 1.0
    mol = Molecule("m", ("H", "C"), np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), {})
    out = message_step(None, params, cfg, encode(cfg, [mol]))
    expected = (1.0 / (1.0 + math.exp(-3.5))) * math.tanh(3.5) / 2
    assert out.values[0, 0, 0] == pytest.approx(expected, abs=1e-15)
    assert out.values[0, 1, 0] == pytest.approx(expected, abs=1e-15)


def test_message_is_directed():
    # with two atoms, receiver v's output is the single message from w over 2;
    # swapping receiver and sender gives a different message
    params = small_params(seed=7)
    rng = np.random.default_rng(1)
    mol = random_molecule(rng, 2, elements=("C", "O"))
    for steps in (1, 3):
        out = run_steps(params, SMALL, mol, steps)
        assert not np.allclose(out[0], out[1])


def test_step_single_atom_stays_zero():
    params = small_params()
    mol = Molecule("m", ("C",), np.zeros((1, 3)), {})
    for steps in range(1, 5):
        assert np.array_equal(run_steps(params, SMALL, mol, steps),
                              np.zeros((1, SMALL.hidden_dim)))


def test_step_two_atoms_structure():
    # from a zero state, each of two atoms receives one message, from the
    # other, over 2
    params = small_params(seed=2)
    mol = random_molecule(np.random.default_rng(3), 2, elements=VOCAB)
    for steps in (1, 2):
        out = run_steps(params, SMALL, mol, steps)
        assert np.allclose(out, oracle_steps(params, SMALL, mol, steps), atol=1e-14)


def test_step_matches_nested_loop_oracle():
    params = small_params(seed=9)
    rng = np.random.default_rng(4)
    mol = random_molecule(rng, 3, elements=VOCAB)
    for steps in (1, 2, 3):
        out = run_steps(params, SMALL, mol, steps)
        assert np.allclose(out, oracle_steps(params, SMALL, mol, steps), atol=1e-12)


def test_batched_step_matches_pairwise_definition():
    # all pairs at once vs one message per pair, for several sizes and with
    # each feature switched off (its weight block skipped, not multiplied by 0)
    params = small_params(seed=13)
    rng = np.random.default_rng(5)
    for flag in (None, "use_atom_embedding", "use_count_feature", "use_distance_feature"):
        cfg = replace(SMALL, **{flag: False}) if flag else SMALL
        for n in (2, 4, 6):
            mol = random_molecule(rng, n, elements=VOCAB)
            for steps in (1, 3):
                out = run_steps(params, cfg, mol, steps)
                assert np.abs(out - oracle_steps(params, cfg, mol, steps)).max() < 1e-12, \
                    (flag, n, steps)


# ---------------------------------------------------------------------------
# readout


def state_tensor(values, requires_grad=False):
    """``values``, ``[ΣN, hidden]`` atom rows or ``[S, ΣN, hidden]`` stacked
    ones, as the ``[S, ΣN, hidden]`` tensor that :func:`message_step` returns
    (``S = 1`` for a single state)."""
    values = np.asarray(values, dtype=np.float64)
    tensor = ad.Tensor(values.reshape(-1, values.shape[-1]), requires_grad)
    tensor.values = tensor.values.reshape(-1, *values.shape[-2:])
    if requires_grad:
        tensor.grad = tensor.grad.reshape(tensor.values.shape)
    return tensor


def test_readout_zero_state_zero_biases():
    params = small_params()
    out = readout(None, state_tensor(np.zeros((3, SMALL.hidden_dim))), params, [3])
    assert out.item() == 0.0


def test_readout_permutation_of_columns():
    params = small_params(seed=4)
    rng = np.random.default_rng(6)
    state = rng.normal(size=(5, SMALL.hidden_dim))
    base = readout(None, state_tensor(state), params, [5]).item()
    for _ in range(5):
        perm = rng.permutation(5)
        shuffled = readout(None, state_tensor(state[perm]), params, [5]).item()
        assert abs(shuffled - base) < 1e-10


def test_readout_hand_case():
    # 1-dim hidden, identity-like MLP: pooled mean passes straight through
    cfg = ModelConfig(atom_dim=1, count_dim=1, hidden_dim=1, mlp_dim=1, steps=1)
    params = init_params(cfg, 2, 4, seed=0)
    for w, _ in params.mlp:
        w.values[:] = 1.0
    state = state_tensor([[0.6], [1.0]])
    assert readout(None, state, params, [2]).item() == pytest.approx(0.8, abs=1e-15)
    negative = state_tensor([[-0.6], [-1.0]])  # ReLU zeroes the pooled mean
    assert readout(None, negative, params, [2]).item() == 0.0


def tape_readout(graph, state, params, sizes):
    """The readout as tape ops composed it before it was one op, on ``[ΣN,
    hidden]`` atom rows: a matmul of their transpose with the ``[ΣN, B]``
    pooling matrix of 1/n, then ``linear`` and ``relu``."""
    sizes = np.asarray(sizes)
    molecule = np.repeat(np.arange(len(sizes)), sizes)
    pool = np.zeros((state.rows, len(sizes)))
    pool[np.arange(state.rows), molecule] = 1.0 / sizes[molecule]
    x = ad.matmul(graph, ad.transpose(graph, state), ad.constant(pool))
    for k, (w, b) in enumerate(params.mlp):
        x = ad.linear(graph, w, b, x)
        if k < len(params.mlp) - 1:
            x = ad.relu(graph, x)
    return x


def test_readout_backward_matches_the_tape_composition():
    # predictions and every gradient, the state's included, on mixed batches
    # of 1-6-atom molecules
    params = small_params(seed=60)
    rng = np.random.default_rng(61)
    for _, b in params.mlp:                     # keep ReLU pre-activations off the kink
        b.values[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    mlp = [t for pair in params.mlp for t in pair]
    for _ in range(12):
        sizes = rng.integers(1, 7, size=rng.integers(1, 7)).tolist()
        rows = rng.normal(size=(sum(sizes), SMALL.hidden_dim))
        targets = rng.normal(size=len(sizes)).tolist()
        runs = []
        for op, state in ((readout, state_tensor(rows, True)),
                          (tape_readout, ad.parameter(rows))):
            ad.zero_grads(mlp)
            graph = ad.Graph()
            preds = op(graph, state, params, sizes)
            ad.backward(graph, mse_loss(graph, preds, targets))
            grads = [state.grad.reshape(rows.shape), *(t.grad.copy() for t in mlp)]
            runs.append((preds.values, grads))
        (got, got_grads), (want, want_grads) = runs
        assert np.abs(got - want).max() <= 1e-12, sizes
        for a, b in zip(got_grads, want_grads):
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), sizes


def test_readout_replicas_equal_live_readouts_bitwise():
    # a stack of states (a recursion tensor's replicas) and a stacked readout
    # tensor each give one row per replica, with the bits of a live readout
    params = small_params(seed=62)
    rng = np.random.default_rng(63)
    for _, b in params.mlp:
        b.values[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    sizes = [1, 3, 2, 5]
    states = rng.normal(size=(4, sum(sizes), SMALL.hidden_dim))
    rows = readout(None, state_tensor(states), params, sizes).values
    assert rows.shape == (4, len(sizes))
    for r, state in enumerate(states):
        assert rows[r].tobytes() == readout(None, state_tensor(state), params,
                                            sizes).values[0].tobytes()
    state = state_tensor(states[0])
    for name, tensor in params.named():
        if not name.startswith("readout_"):
            continue
        stack = tensor.values[None] + rng.normal(scale=0.1, size=(3, *tensor.shape))
        rows = readout(None, state, params, sizes, replicas=(name, stack)).values
        orig = tensor.values.copy()
        for r in range(3):
            tensor.values[:] = stack[r]
            assert rows[r].tobytes() == readout(None, state, params, sizes).values[0].tobytes()
        tensor.values[:] = orig


def test_readout_reports_a_non_finite_pre_activation():
    # relu would turn a -inf pre-activation into 0 and hide it; the one check
    # covers the means and every layer's pre-activations
    params = small_params(seed=64)
    params.mlp[0][0].values[:] = -1e308
    state = state_tensor(np.full((2, SMALL.hidden_dim), 1e3))
    with np.errstate(over="ignore"), \
            pytest.raises(NumericalError, match="non-finite values produced by op 'readout'"):
        readout(None, state, params, [2])


# ---------------------------------------------------------------------------
# forward


def test_forward_single_atom_is_input_independent():
    params = small_params(seed=8)
    base = forward(None, Molecule("a", ("C",), np.zeros((1, 3)), {}), params, SMALL, VOCAB)
    moved = forward(None, Molecule("b", ("O",), np.full((1, 3), 7.5), {}), params, SMALL, VOCAB)
    zero_state = readout(None, state_tensor(np.zeros((1, SMALL.hidden_dim))), params, [1])
    assert base.item() == moved.item() == zero_state.item()


def test_forward_permutation_invariance_exhaustive():
    params = small_params(seed=10)
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        mol = random_molecule(rng, n, elements=VOCAB)
        base = forward(None, mol, params, SMALL, VOCAB).item()
        for perm in itertools.permutations(range(n)):
            out = forward(None, permuted(mol, perm), params, SMALL, VOCAB).item()
            assert abs(out - base) < 1e-9


def test_forward_rigid_motion_invariance():
    params = small_params(seed=11)
    rng = np.random.default_rng(8)
    mol = random_molecule(rng, 5, elements=VOCAB)
    base = forward(None, mol, params, SMALL, VOCAB).item()
    for _ in range(10):
        rot = random_rotation(rng)
        shift = rng.uniform(-20, 20, 3)
        moved = Molecule(mol.mol_id, mol.symbols, mol.coords @ rot.T + shift, mol.targets)
        assert abs(forward(None, moved, params, SMALL, VOCAB).item() - base) < 1e-9


def test_forward_matches_straightline_oracle():
    params = small_params(seed=12)
    rng = np.random.default_rng(9)
    for n in (1, 2, 4, 6):
        mol = random_molecule(rng, n, elements=VOCAB)
        got = forward(None, mol, params, SMALL, VOCAB).item()
        want = straightline_forward(mol, params, SMALL, VOCAB)
        assert abs(got - want) < 1e-10


def test_forward_skip_connections_reinject_embeddings():
    # with the hidden-state column blocks of both weights zeroed, a step's
    # output depends only on the embeddings, count and distances; since they
    # re-enter at every step, every step repeats the first one exactly
    cfg = ModelConfig(atom_dim=3, count_dim=2, hidden_dim=4, mlp_dim=4, steps=4)
    params = init_params(cfg, len(VOCAB), 8, seed=1)
    mol = random_molecule(np.random.default_rng(10), 4, elements=VOCAB)
    one_step = replace(cfg, steps=1)
    # the hidden state feeds back while its blocks are live
    assert forward(None, mol, params, cfg, VOCAB).item() != \
        forward(None, mol, params, one_step, VOCAB).item()
    half = cfg.atom_dim + cfg.hidden_dim
    for weight in (params.gate_weight, params.candidate_weight):
        weight.values[:, cfg.atom_dim:half] = 0.0
        weight.values[:, half + cfg.atom_dim:2 * half] = 0.0
    assert forward(None, mol, params, cfg, VOCAB).item() == \
        forward(None, mol, params, one_step, VOCAB).item()


def test_forward_zero_candidate_collapses_to_zero_state_readout():
    params = small_params(seed=14)
    params.candidate_weight.values[:] = 0.0
    params.candidate_bias.values[:] = 0.0
    rng = np.random.default_rng(11)
    expected = readout(None, state_tensor(np.zeros((1, SMALL.hidden_dim))), params,
                       [1]).item()
    for n in (2, 5):
        mol = random_molecule(rng, n, elements=VOCAB)
        assert forward(None, mol, params, SMALL, VOCAB).item() == expected


def test_forward_out_of_vocabulary():
    params = small_params()
    mol = Molecule("m", ("S",), np.zeros((1, 3)), {})
    with pytest.raises(VocabularyError, match="'S'"):
        forward(None, Molecule("m", ("S", "C"), np.zeros((2, 3)), {}), params, SMALL, VOCAB)
    del mol


def test_forward_count_lookup_clamps_to_last_row():
    params = small_params(max_atoms=3)
    mol = random_molecule(np.random.default_rng(12), 5, elements=VOCAB)
    base = forward(None, mol, params, SMALL, VOCAB).item()
    # unused early rows do not matter, the clamped last row does
    params.count_embedding.values[0, :] = 99.0
    assert forward(None, mol, params, SMALL, VOCAB).item() == base
    params.count_embedding.values[2, :] += 0.25
    assert forward(None, mol, params, SMALL, VOCAB).item() != base


def test_forward_no_distance_ignores_coordinates_exactly():
    cfg = ModelConfig(atom_dim=3, count_dim=2, hidden_dim=4, mlp_dim=4, steps=3,
                      use_distance_feature=False)
    params = init_params(cfg, len(VOCAB), 8, seed=2)
    rng = np.random.default_rng(13)
    mol = random_molecule(rng, 4, elements=VOCAB)
    moved = Molecule(mol.mol_id, mol.symbols, rng.uniform(-9, 9, (4, 3)), mol.targets)
    a = forward(None, mol, params, cfg, VOCAB).item()
    b = forward(None, moved, params, cfg, VOCAB).item()
    assert a == b


@pytest.mark.parametrize("flag", ["use_atom_embedding", "use_count_feature",
                                  "use_distance_feature"])
def test_ablations_keep_shapes_and_match_oracle(flag):
    cfg = ModelConfig(atom_dim=3, count_dim=2, hidden_dim=4, mlp_dim=5, steps=2,
                      **{flag: False})
    params = init_params(cfg, len(VOCAB), 8, seed=3)
    full = init_params(ModelConfig(atom_dim=3, count_dim=2, hidden_dim=4, mlp_dim=5,
                                   steps=2), len(VOCAB), 8, seed=3)
    assert params.parameter_count() == full.parameter_count()
    mol = random_molecule(np.random.default_rng(14), 4, elements=VOCAB)
    got = forward(None, mol, params, cfg, VOCAB).item()
    want = straightline_forward(mol, params, cfg, VOCAB)
    assert abs(got - want) < 1e-10


# the last case's 7- and 8-atom molecules share the clamped last row of the
# 6-row count table, so its gradient sums over both
@pytest.mark.parametrize("steps, sizes", [(1, (2, 4, 5)), (2, (2, 4, 5)), (5, (2, 4, 5)),
                                          (2, (2, 7, 8))],
                         ids=["1", "2", "5", "2-clamped"])
def test_forward_gradients_match_finite_differences(steps, sizes):
    cfg = ModelConfig(atom_dim=3, count_dim=2, hidden_dim=4, mlp_dim=4, steps=steps)
    params = init_params(cfg, len(VOCAB), 6, seed=4)
    # move MLP biases off zero so no ReLU pre-activation sits on the kink
    rng = np.random.default_rng(15)
    for _, b in params.mlp:
        b.values[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    molecules = random_molecules(16, 3, sizes=sizes, elements=VOCAB)
    report = gradient_check(params, cfg, molecules, [0.3, -0.2, 0.9], VOCAB)
    assert report.max_error < 1e-5, report
    assert model._spare == []                   # the check freed its workspace
    if steps == 1:
        # the only step reads the zero initial state, so the hidden-state
        # column blocks get exactly zero gradient
        half = cfg.atom_dim + cfg.hidden_dim
        for weight in (params.gate_weight, params.candidate_weight):
            assert not weight.grad[:, cfg.atom_dim:half].any()
            assert not weight.grad[:, half + cfg.atom_dim:2 * half].any()


@pytest.mark.parametrize("flag", ["use_atom_embedding", "use_count_feature",
                                  "use_distance_feature"])
def test_ablation_gradients_match_finite_differences(flag):
    (report,) = run_gradcheck(seed=0, seeds=1, cfg=replace(DEFAULT_CHECK_CONFIG, **{flag: False}))
    assert report.max_error < 1e-4, report


def test_gradient_check_report_equals_a_whole_forward_reference_loop():
    # the check runs only the readout for a readout entry, on the recursion
    # state computed once; every loss must have the bits of a whole forward
    cfg = ModelConfig(atom_dim=3, count_dim=2, hidden_dim=4, mlp_dim=4, steps=2)
    params = init_params(cfg, len(VOCAB), 6, seed=30)
    rng = np.random.default_rng(31)
    for _, b in params.mlp:
        b.values[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    molecules = random_molecules(32, 3, sizes=(1, 2, 5), elements=VOCAB)
    targets = [0.4, -0.7, 1.1]
    encodings = encode(cfg, molecules)
    named = params.named()
    ad.zero_grads([t for _, t in named])
    graph = ad.Graph()
    ad.backward(graph, mse_loss(graph, forward_batch(graph, encodings, params, cfg), targets))
    fd_step, worst, total = 1e-5, (0.0, "", (0, 0)), 0
    for name, tensor in named:
        grad = tensor.grad.copy()
        for idx in np.ndindex(tensor.shape):
            total += 1
            orig = tensor.values[idx]
            losses = []
            for value in (orig + fd_step, orig - fd_step):
                tensor.values[idx] = value
                preds = forward_batch(None, encodings, params, cfg)
                losses.append(mse_loss(None, preds, targets).item())
            tensor.values[idx] = orig
            numeric = (losses[0] - losses[1]) / (2.0 * fd_step)
            err = abs(grad[idx] - numeric) / max(abs(grad[idx]), abs(numeric), 1.0)
            if err > worst[0]:
                worst = (err, name, idx)
    report = gradient_check(params, cfg, molecules, targets, VOCAB, fd_step=fd_step)
    assert (report.max_error, report.worst_tensor, report.worst_index) == worst
    assert report.parameter_count == total == params.parameter_count()


# the fifth and the second replicated forward of a recursion tensor, and the
# third of a readout tensor
@pytest.mark.parametrize("kind, failing_call", [("recursion", 5), ("recursion", 2),
                                                ("readout", 3)])
def test_gradient_check_writes_no_live_tensor_when_an_evaluation_raises(monkeypatch, kind,
                                                                       failing_call):
    params = init_params(DEFAULT_CHECK_CONFIG, len(VOCAB), 6, seed=36)
    before = [t.values.tobytes() for t in params.tensors()]
    molecules = random_molecules(37, 3, sizes=(1, 2, 4), elements=VOCAB)
    real = gradcheck.forward_batch
    calls = 0

    def failing(graph, *args, **kwargs):
        nonlocal calls
        if "replicas" in kwargs:                 # a loss evaluation
            # no live tensor is written at any point of the check
            for (name, t), values in zip(params.named(), before):
                assert t.values.tobytes() == values, name
            if kwargs["replicas"][0].startswith("readout_") == (kind == "readout"):
                calls += 1
                if calls == failing_call:
                    raise NumericalError("evaluation failed")
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(gradcheck, "forward_batch", failing)
    with pytest.raises(NumericalError, match="evaluation failed"):
        gradient_check(params, DEFAULT_CHECK_CONFIG, molecules, [0.1, 0.2, 0.3], VOCAB)
    assert calls == failing_call
    for (name, t), values in zip(params.named(), before):
        assert t.values.tobytes() == values, name
    assert model._spare == []                   # the check freed its workspace


RECURSION_TENSORS = ("atom_embedding", "count_embedding", "gate_weight", "gate_bias",
                     "candidate_weight", "candidate_bias")


@pytest.mark.parametrize("flag", [None, "use_atom_embedding", "use_count_feature",
                                  "use_distance_feature"])
def test_replicated_recursion_equals_the_live_tensor_per_replica(flag):
    # every replica's final state and predictions have the bits and the
    # layout of a recursion and a forward with its value written into the
    # live tensor; a recursion tensor's states come from one call over all of
    # its replicas (a readout tensor's replicas share the live recursion),
    # the predictions from the check's chunks of 7 entries, which divide none
    # of the entry counts 12, 16, 68, 4, 20, 5, 25 and 1, so chunks end mid-tensor
    cfg = replace(SMALL, **{flag: False}) if flag else SMALL
    params = init_params(cfg, len(VOCAB), 8, seed=54)
    encodings = encode(cfg, random_molecules(55, 3, sizes=(2, 1, 4), elements=VOCAB))
    before = [t.values.tobytes() for t in params.tensors()]
    for name, tensor in params.named():
        values = tensor.values
        entries = list(np.ndindex(values.shape))
        stack = np.repeat(values[None], 2 * len(entries), axis=0)
        for j, idx in enumerate(entries):
            stack[(2 * j, *idx)] = values[idx] + 1e-5
            stack[(2 * j + 1, *idx)] = values[idx] - 1e-5
        finals = (message_step(None, params, cfg, encodings, replicas=(name, stack)).values
                  if name in RECURSION_TENSORS
                  else [message_step(None, params, cfg, encodings).values[0]] * len(stack))
        seen = []
        for chunk, preds in gradcheck._perturbed_predictions(params, cfg, encodings, name,
                                                             1e-5, 7):
            preds = preds.values
            assert preds.shape == (2 * len(chunk), len(encodings))
            for j, idx in enumerate(chunk):
                k = len(seen)
                seen.append(idx)
                orig = values[idx]
                for value, state, got in ((orig + 1e-5, finals[2 * k], preds[2 * j]),
                                          (orig - 1e-5, finals[2 * k + 1], preds[2 * j + 1])):
                    # the lone atom's row stays +0.0
                    assert not state[2].any() and not np.signbit(state[2]).any()
                    values[idx] = value
                    want_state = message_step(None, params, cfg, encodings).values[0]
                    want = forward_batch(None, encodings, params, cfg).values[0]
                    values[idx] = orig
                    for a, b in ((state, want_state), (got, want)):
                        assert a.strides == b.strides, (name, idx)
                        assert a.tobytes() == b.tobytes(), (name, idx)
        assert seen == entries, name
    assert [t.values.tobytes() for t in params.tensors()] == before


@pytest.mark.parametrize("flag", [None, "use_atom_embedding", "use_count_feature",
                                  "use_distance_feature"])
@pytest.mark.parametrize("cfg, sizes, reps", [
    (DEFAULT_CHECK_CONFIG, (1, 2, 4, 6), None),
    (replace(SMALL, hidden_dim=5), (3, 1, 2, 5), 7),
], ids=["check-shape", "odd-width"])
def test_each_replica_keeps_its_bits_with_the_replicas_innermost(cfg, sizes, reps, flag):
    # the replicas sit innermost, beside hidden, so each pass over a grid runs
    # hidden R wide: the check's own batch and replica count (None: as many as
    # it runs per call), and a width of 5 x 7 that ends off every SIMD
    # boundary. Every entry of every replica differs; each replica's final
    # state and predictions have the bits and the strides of a call with its
    # values written into the live tensor
    cfg = replace(cfg, **{flag: False}) if flag else cfg
    params = init_params(cfg, len(VOCAB), 6, seed=71)
    encodings = encode(cfg, random_molecules(72, len(sizes), sizes=sizes, elements=VOCAB))
    rng = np.random.default_rng(73)
    before = [t.values.tobytes() for t in params.tensors()]
    for name in RECURSION_TENSORS:
        values = getattr(params, name).values
        count = reps or 2 * gradcheck._entries_per_call(cfg, sizes, name, values.size)
        stack = values + rng.uniform(-0.01, 0.01, size=(count, *values.shape))
        finals = message_step(None, params, cfg, encodings, replicas=(name, stack)).values
        preds = forward_batch(None, encodings, params, cfg, replicas=(name, stack)).values
        assert finals.shape == (count, sum(sizes), cfg.hidden_dim)
        for r in range(count):
            orig = values.copy()
            values[:] = stack[r]
            want_state = message_step(None, params, cfg, encodings)
            want = readout(None, want_state, params, sizes).values[0]
            values[:] = orig
            for got, expected in ((finals[r], want_state.values[0]), (preds[r], want)):
                assert got.strides == expected.strides, (name, r)
                assert got.tobytes() == expected.tobytes(), (name, r)
    assert [t.values.tobytes() for t in params.tensors()] == before


def test_an_overflowing_replica_names_the_molecule_and_step():
    params = small_params(seed=56)
    params.atom_embedding.values[:] = 1.0
    encodings = encode(SMALL, [Molecule("lone", ("C",), np.zeros((1, 3)), {}),
                               random_molecule(np.random.default_rng(57), 4, elements=VOCAB,
                                               mol_id="m4")])
    before = [t.values.tobytes() for t in params.tensors()]
    stack = np.repeat(params.gate_weight.values[None], 3, axis=0)
    stack[1] = 1e308                             # the receiver term overflows in replica 1 only
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=r"^molecule m4, step 0: .*'message_step'"):
        message_step(None, params, SMALL, encodings, replicas=("gate_weight", stack))
    assert [t.values.tobytes() for t in params.tensors()] == before


def test_replicas_per_call_fit_the_byte_budget():
    # at least one entry per call, however large the batch or the tensor; more
    # only while their replicas' workspace, or a readout tensor's stacked
    # values, fit the budget
    big = replace(DEFAULT_CHECK_CONFIG, hidden_dim=100, mlp_dim=100)
    assert gradcheck._entries_per_call(big, [29], "gate_weight", 100 * 225) == 1
    overflowing = gradcheck.REPLICA_BYTES // 16 + 1   # two replicas of this many exceed it
    assert gradcheck._entries_per_call(big, [29], "readout_w1", overflowing) == 1
    sizes = [1, 2, 4, 6]
    per_call = gradcheck._entries_per_call(DEFAULT_CHECK_CONFIG, sizes, "gate_weight", 8 * 29)
    assert per_call > 1
    assert (8 * model._workspace_size(DEFAULT_CHECK_CONFIG, sizes, 2 * per_call)
            <= gradcheck.REPLICA_BYTES
            < 8 * model._workspace_size(DEFAULT_CHECK_CONFIG, sizes, 2 * per_call + 2))
    # at the check's dims, each readout tensor runs in one call
    for name, shape in model.param_shapes(DEFAULT_CHECK_CONFIG, len(VOCAB), 6):
        if name.startswith("readout_"):
            size = math.prod(shape)
            per_call = gradcheck._entries_per_call(DEFAULT_CHECK_CONFIG, sizes, name, size)
            assert per_call >= size and 16 * per_call * size <= gradcheck.REPLICA_BYTES
    per_call = gradcheck._entries_per_call(big, [29], "readout_b1", 100)
    assert 16 * per_call * 100 <= gradcheck.REPLICA_BYTES < 16 * (per_call + 1) * 100


@pytest.mark.parametrize("corrupt", [False, True])
def test_the_replica_budget_changes_no_report(monkeypatch, corrupt):
    # one entry per call, the default budget and 1 MiB chunk every tensor
    # differently; every report keeps its bits
    reports = []
    for budget in (1, gradcheck.REPLICA_BYTES, 1 << 20):
        monkeypatch.setattr(gradcheck, "REPLICA_BYTES", budget)
        reports.append(repr(run_gradcheck(seed=0, seeds=2, corrupt=corrupt)))
    assert reports[0] == reports[1] == reports[2]


def test_a_default_check_makes_one_recorded_and_48_no_grad_calls(monkeypatch):
    real = gradcheck.forward_batch
    graphs = []

    def counting(graph, *args, **kwargs):
        graphs.append(graph)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(gradcheck, "forward_batch", counting)
    run_gradcheck(seed=0, seeds=1)
    recorded = sum(graph is not None for graph in graphs)
    assert (recorded, len(graphs) - recorded) == (1, 48)
    sizes = [1, 2, 4, 6]
    assert 48 == sum(
        math.ceil(math.prod(shape) / gradcheck._entries_per_call(DEFAULT_CHECK_CONFIG, sizes,
                                                                 name, math.prod(shape)))
        for name, shape in model.param_shapes(DEFAULT_CHECK_CONFIG, len(VOCAB), max(sizes)))


def test_a_recorded_recursion_takes_no_replicas():
    params = small_params(seed=58)
    encodings = encode(SMALL, [random_molecule(np.random.default_rng(59), 3, elements=VOCAB)])
    stack = params.gate_bias.values[None].copy()
    with pytest.raises(ValueError, match="no replicas"):
        message_step(ad.Graph(), params, SMALL, encodings, replicas=("gate_bias", stack))
    # nor does a recorded forward of a readout tensor's replicas, nor the readout
    stack = params.mlp[0][1].values[None].copy()
    with pytest.raises(ValueError, match="no replicas"):
        forward_batch(ad.Graph(), encodings, params, SMALL, replicas=("readout_b0", stack))
    state = message_step(ad.Graph(), params, SMALL, encodings)
    with pytest.raises(ValueError, match="no replicas"):
        readout(ad.Graph(), state, params, [3], replicas=("readout_b0", stack))


@pytest.mark.parametrize("name, shape", [("gate_wieght", (3, 8, 8)),
                                         ("readout_bogus", (3, 8, 8)),
                                         ("gate_weight", (3, 8, 28)),
                                         ("readout_w1", (8, 8)),
                                         ("candidate_bias", (0, 8, 1))])
def test_replicas_naming_no_tensor_or_of_the_wrong_shape_are_refused(name, shape):
    # the error names both the tensor and the values' shape
    params = init_params(DEFAULT_CHECK_CONFIG, len(VOCAB), 6, seed=65)
    encodings = encode(DEFAULT_CHECK_CONFIG, random_molecules(66, 2, sizes=(1, 3),
                                                              elements=VOCAB))
    with pytest.raises(ValueError, match=re.escape(f"'{name}'") + ".*" + re.escape(str(shape))):
        forward_batch(None, encodings, params, DEFAULT_CHECK_CONFIG,
                      replicas=(name, np.zeros(shape)))


def test_a_stage_runs_once_for_replicas_of_a_tensor_it_does_not_read():
    # the recursion given a readout tensor's replicas, and the readout given a
    # recursion tensor's, run one pass with the bits of the unreplicated call
    params = init_params(DEFAULT_CHECK_CONFIG, len(VOCAB), 6, seed=67)
    encodings = encode(DEFAULT_CHECK_CONFIG, random_molecules(68, 2, sizes=(2, 3),
                                                              elements=VOCAB))
    state = message_step(None, params, DEFAULT_CHECK_CONFIG, encodings)
    stack = params.mlp[0][1].values[None] + np.arange(1.0, 4.0)[:, None, None]
    states = message_step(None, params, DEFAULT_CHECK_CONFIG, encodings,
                          replicas=("readout_b0", stack)).values
    assert states.shape == state.shape == (1, 5, DEFAULT_CHECK_CONFIG.hidden_dim)
    assert states.strides == state.values.strides
    assert states.tobytes() == state.values.tobytes()
    stack = params.gate_bias.values[None] + np.arange(1.0, 4.0)[:, None, None]
    rows = readout(None, state, params, [2, 3], replicas=("gate_bias", stack)).values
    assert rows.shape == (1, 2)
    assert rows.tobytes() == readout(None, state, params, [2, 3]).values.tobytes()


@pytest.mark.parametrize("recorded", [False, True])
def test_one_atom_molecules_keep_a_positive_zero_state(recorded):
    # a one-atom molecule has no pairs: its rows are +0.0 at every step, also
    # in a workspace that an earlier batch left full of other values
    params = small_params(seed=33)
    sizes = (1, 3, 1, 2)
    encodings = encode(SMALL, random_molecules(35, 4, sizes=sizes, elements=VOCAB))
    lone = [0, 4]
    for _ in range(3):
        graph = ad.Graph() if recorded else None
        state = message_step(graph, params, SMALL, encodings)
        out = state.values[0]
        assert (out[lone] == 0.0).all() and not np.signbit(out[lone]).any()
        assert np.delete(out, lone, axis=0).all()
        if recorded:
            ad.backward(graph, mse_loss(graph, readout(graph, state, params, sizes),
                                        [0.1, 0.2, 0.3, 0.4]))


def test_one_atom_molecules_give_the_recursion_no_gradient():
    # their per-atom adjoints are zero, so a batch of them alone leaves every
    # recursion tensor's gradient at zero, while the readout's output bias has one
    params = small_params(seed=39)
    encodings = encode(SMALL, random_molecules(40, 2, sizes=(1, 1), elements=VOCAB))
    for _, b in params.mlp:
        b.values[:] = 0.5
    ad.zero_grads(params.tensors())
    graph = ad.Graph()
    ad.backward(graph, mse_loss(graph, forward_batch(graph, encodings, params, SMALL),
                                [0.3, -0.2]))
    for name, t in params.named():
        if not name.startswith("readout_"):
            assert not t.grad.any(), name
    assert params.mlp[-1][1].grad.any()


def test_overflowing_pre_activation_names_op_molecule_and_step():
    # sigmoid saturates, so an infinite gate pre-activation would still give
    # finite messages; the step must refuse it rather than pass it on
    params = small_params(seed=15)
    params.gate_weight.values[:] = 1e308
    params.atom_embedding.values[:] = 1.0  # receiver term alone: 3 atom columns x 1e308
    mol = random_molecule(np.random.default_rng(16), 4, elements=VOCAB, mol_id="m3")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=r"^molecule m3, step 0: .*'message_step'"):
        forward(None, mol, params, SMALL, VOCAB)


def test_overflow_in_a_later_step_names_that_step():
    # the state starts at zero, so huge hidden-state columns of the gate leave
    # step 0 finite; positive biases then make step 0's messages near 1, so the
    # gate's pre-activations overflow in step 1
    params = small_params(seed=23)
    half = SMALL.atom_dim + SMALL.hidden_dim
    params.gate_weight.values[:, SMALL.atom_dim:half] = 1e308
    params.gate_weight.values[:, half + SMALL.atom_dim:2 * half] = 1e308
    params.gate_bias.values[:] = 3.0
    params.candidate_bias.values[:] = 3.0
    mol = random_molecule(np.random.default_rng(24), 4, elements=VOCAB, mol_id="late")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=r"^molecule late, step 1: .*'message_step'"):
        forward(None, mol, params, SMALL, VOCAB)


def _count_columns(cfg):
    return slice(2 * (cfg.atom_dim + cfg.hidden_dim), cfg.concat_dim - 1)


def test_a_lone_atom_with_non_finite_terms_does_not_raise():
    # a one-atom molecule has no pairs, so no bound covers its terms: its count
    # row (row 0) read twice by the gate sums to inf, and the step must not
    # raise; the other molecule keeps the bits it has alone
    params = small_params(seed=75)
    params.count_embedding.values[0] = 1e308
    params.gate_weight.values[:, _count_columns(SMALL)] = 1.0
    lone = Molecule("lone", ("C",), np.zeros((1, 3)), {})
    other = random_molecule(np.random.default_rng(76), 4, elements=VOCAB, mol_id="m4")
    with np.errstate(over="ignore", invalid="ignore"):
        for graph in (None, ad.Graph()):
            got = forward_batch(graph, encode(SMALL, [lone, other]), params, SMALL).values
            want = forward_batch(graph, encode(SMALL, [other]), params, SMALL).values
            assert got[0, 1].tobytes() == want[0, 0].tobytes()


def test_a_receiver_term_past_half_the_float_maximum_does_not_raise():
    # 0.6x the float maximum in one molecule's gate receiver terms (its count
    # row) and small sender terms: every grid entry is finite, though the
    # batch-wide bound, twice 0.6x the maximum, is not, so the step must not raise
    params = small_params(seed=77)
    params.count_embedding.values[3] = [0.6 * np.finfo(float).max, 0.0]
    params.gate_weight.values[:, _count_columns(SMALL)] = [1.0, 0.0]
    rng = np.random.default_rng(78)
    big = random_molecule(rng, 4, elements=VOCAB, mol_id="big")
    other = random_molecule(rng, 3, elements=VOCAB, mol_id="m3")
    with np.errstate(over="ignore", invalid="ignore"):
        for graph in (None, ad.Graph()):
            got = forward_batch(graph, encode(SMALL, [big, other]), params, SMALL).values
            want = forward_batch(graph, encode(SMALL, [other]), params, SMALL).values
            assert np.isfinite(got).all()
            assert got[0, 1].tobytes() == want[0, 0].tobytes()


def test_receiver_and_sender_terms_that_sum_past_the_float_maximum_raise():
    # each term is 0.6x the float maximum, and finite, but their sum in the
    # grid is not: the step must raise, naming the molecule
    params = small_params(seed=79)
    big = 0.6 * np.finfo(float).max
    params.count_embedding.values[3] = [big, 0.0]
    params.gate_weight.values[:, _count_columns(SMALL)] = [1.0, 0.0]
    send_x = SMALL.atom_dim + SMALL.hidden_dim
    params.atom_embedding.values[:, 0] = 1.0
    params.gate_weight.values[:, send_x:send_x + SMALL.atom_dim] = [big, 0.0, 0.0]
    rng = np.random.default_rng(80)
    molecules = [random_molecule(rng, 3, elements=VOCAB, mol_id="m3"),
                 random_molecule(rng, 4, elements=VOCAB, mol_id="sum")]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=r"^molecule sum, step 0: .*'message_step'"):
        forward_batch(None, encode(SMALL, molecules), params, SMALL)


def test_receiver_and_sender_terms_that_cancel_do_not_raise():
    # +0.6x the float maximum in every gate receiver term of one molecule and
    # -0.6x it in every gate sender term: the batch-wide bound is not finite,
    # but every grid entry is, so no call may raise
    params = small_params(seed=79)
    big = 0.6 * np.finfo(float).max
    params.count_embedding.values[3] = [big, 0.0]
    params.gate_weight.values[:, _count_columns(SMALL)] = [1.0, 0.0]
    send_x = SMALL.atom_dim + SMALL.hidden_dim
    params.atom_embedding.values[:, 0] = 1.0
    params.gate_weight.values[:, send_x:send_x + SMALL.atom_dim] = [-big, 0.0, 0.0]
    rng = np.random.default_rng(80)
    encodings = encode(SMALL, [random_molecule(rng, 3, elements=VOCAB, mol_id="m3"),
                               random_molecule(rng, 4, elements=VOCAB, mol_id="m4")])
    stack = np.repeat(params.gate_weight.values[None], 2, axis=0)
    stack[0, :, send_x] = 0.0                    # replica 0 without the -0.6x sender terms
    with np.errstate(over="ignore", invalid="ignore"):
        nograd = forward_batch(None, encodings, params, SMALL).values
        grads = batch_gradients(params, SMALL, encodings, [0.5, -0.5])
        replicated = forward_batch(None, encodings, params, SMALL,
                                   replicas=("gate_weight", stack)).values
    assert np.isfinite(nograd).all() and np.isfinite(replicated).all()
    assert replicated[1].tobytes() == nograd[0].tobytes()
    for (name, _), grad in zip(params.named(), grads):
        assert np.isfinite(grad).all(), name


def test_of_two_overflowing_molecules_the_first_in_the_batch_is_named():
    # an overflowing count row makes every receiver term of the molecules
    # that read it infinite: the 2-atom one (row 1) and the 4-atom one (row 3)
    params = small_params(seed=81)
    params.gate_weight.values[:, _count_columns(SMALL)] = 1.0
    rng = np.random.default_rng(82)
    encodings = encode(SMALL, [random_molecule(rng, n, elements=VOCAB, mol_id=f"m{n}")
                               for n in (3, 2, 4)])
    stack = np.repeat(params.count_embedding.values[None], 2, axis=0)
    stack[0, 3] = 1e308                          # replica 0: only the later molecule
    stack[1, 1] = 1e308                          # replica 1: only the earlier one
    params.count_embedding.values[[1, 3]] = 1e308
    first = r"^molecule m2, step 0: .*'message_step'"
    with np.errstate(over="ignore", invalid="ignore"):
        for graph in (None, ad.Graph()):
            with pytest.raises(NumericalError, match=first):
                message_step(graph, params, SMALL, encodings)
        with pytest.raises(NumericalError, match=first):
            message_step(None, params, SMALL, encodings, replicas=("count_embedding", stack))


def test_non_finite_rows_that_only_a_lone_atom_reads_leave_every_gradient_alone():
    # a one-atom molecule's adjoints are zero, so its count row and an
    # embedding row that only it reads reach no gradient, NaN or not
    lone = Molecule("lone", ("O",), np.zeros((1, 3)), {})
    other = random_molecule(np.random.default_rng(84), 4, elements=("H", "C"), mol_id="m4")
    grads = []
    for value in (0.5, float("nan")):
        params = small_params(seed=83)
        params.count_embedding.values[0] = value
        params.atom_embedding.values[VOCAB.index("O")] = value
        grads.append(batch_gradients(params, SMALL, encode(SMALL, [lone, other]), [0.3, -0.2]))
    for (name, _), finite, nan in zip(params.named(), *grads):
        assert finite.tobytes() == nan.tobytes(), name


def closed_form_workspace_size(cfg, sizes, replicas=1, recording=False):
    """The recursion's workspace entries, counted independently of its
    layout: per replica, the stacked weights, three [ΣN, 4 hidden] slabs,
    the grid slot and the states; recorded, the per-step adjoints beyond the
    three slabs, and the grids of every step and molecule with pairs or the
    weight gradients laid over them, whichever is larger."""
    hidden, steps, atoms = cfg.hidden_dim, cfg.steps, sum(sizes)
    size = replicas * (
        2 * hidden * cfg.concat_dim + 12 * atoms * hidden + 2 * max(sizes) ** 2 * hidden
        + (steps - 1 if recording else 1) * atoms * hidden)
    if recording:
        size += hidden * ((max(steps, 3) - 3) * 4 * atoms
                          + max(steps * 2 * sum(n * n for n in sizes if n > 1),
                                2 * cfg.concat_dim + 4 * hidden + 4 * cfg.atom_dim))
    return size


@pytest.mark.parametrize("sizes", [(4, 6, 2), (1, 4, 6), (1,), (1, 1)])
def test_the_recursion_carves_exactly_its_workspace_size(monkeypatch, sizes):
    # no-grad, recorded (through its backward) and replicated calls, with and
    # without one-atom molecules, and with 1 and 2 steps, fewer than the three
    # forward-only slabs that a recorded call lays its per-step adjoints
    # over; the recursion makes the first carver of each, and a recorded one
    # a second over its grid region; the readout makes the next, and the
    # recursion's backward one more over the grid region, for the weight gradients
    for steps, replicas, recording in itertools.product((1, 2, 3, 5, 8), (1, 3),
                                                        (False, True)):
        cfg = ModelConfig(atom_dim=4, count_dim=4, hidden_dim=8, mlp_dim=8, steps=steps)
        assert (model._workspace_size(cfg, sizes, replicas, recording)
                == closed_form_workspace_size(cfg, sizes, replicas, recording))
        assert len(model._layout(cfg, sizes, replicas, recording)) == 7 + recording
    # gradcheck's replica budget reads the no-grad size of one replica
    for steps in (1, 2, 3, 5, 8):
        cfg = replace(DEFAULT_CHECK_CONFIG, steps=steps)
        budget = gradcheck.REPLICA_BYTES // 8 // (2 * closed_form_workspace_size(cfg, sizes))
        assert gradcheck._entries_per_call(cfg, sizes, "gate_weight", 232) == max(1, budget)
    carved = []
    carver = model._carver

    def counting(buf):
        carve, index = carver(buf), len(carved)
        carved.append(0)

        def counted(shape):
            carved[index] += math.prod(shape)
            return carve(shape)

        return counted

    monkeypatch.setattr(model, "_carver", counting)
    molecules = random_molecules(86, len(sizes), sizes=sizes, elements=VOCAB)
    targets = [0.3, -0.2, 0.9][:len(sizes)]
    for steps in (1, 2, 3):
        cfg = ModelConfig(atom_dim=4, count_dim=4, hidden_dim=8, mlp_dim=8, steps=steps)
        params = init_params(cfg, len(VOCAB), 8, seed=85)
        # MLP biases off zero, so that no ReLU pre-activation sits on the kink
        rng = np.random.default_rng(87)
        for _, b in params.mlp:
            b.values[:] = rng.uniform(-0.3, 0.3, size=b.shape)
        encodings = encode(cfg, molecules)
        stack = np.repeat(params.gate_bias.values[None], 3, axis=0)

        carved.clear()
        message_step(None, params, cfg, encodings)
        assert carved[0] == closed_form_workspace_size(cfg, sizes)
        carved.clear()
        graph = ad.Graph()
        state = message_step(graph, params, cfg, encodings)
        ad.backward(graph, mse_loss(graph, readout(graph, state, params, sizes), targets))
        assert carved[0] == closed_form_workspace_size(cfg, sizes, recording=True)
        assert carved[1] == steps * 2 * cfg.hidden_dim * sum(n * n for n in sizes if n > 1)
        # the gate and candidate weights' gradients, then the four terms' rows
        # of the hidden-state and embedding columns
        assert carved[3] == (2 * cfg.hidden_dim * cfg.concat_dim
                             + 4 * cfg.hidden_dim * (cfg.hidden_dim + cfg.atom_dim))
        assert max(carved[1], carved[3]) == model._layout(cfg, sizes, recording=True)[-1][0]
        carved.clear()
        message_step(None, params, cfg, encodings, replicas=("gate_bias", stack))
        assert carved[0] == closed_form_workspace_size(cfg, sizes, 3)
        # and the recorded gradients of this layout are right
        report = gradient_check(params, cfg, molecules, targets, VOCAB)
        assert report.max_error < 1e-5, (steps, report)


def test_non_finite_gradient_names_the_molecule_and_step():
    # the candidate reads only the hidden state, which therefore stays zero
    # and keeps every candidate at tanh(0) = 0; a huge upstream gradient then
    # passes the candidate's unit hidden-state weights and overflows the state
    # adjoint carried back from the last step, in the molecule with pairs
    cfg = replace(SMALL, steps=2)
    params = small_params(seed=25)
    half = cfg.atom_dim + cfg.hidden_dim
    params.candidate_weight.values[:] = 0.0
    params.candidate_weight.values[:, cfg.atom_dim:half] = 1.0
    params.candidate_weight.values[:, half + cfg.atom_dim:2 * half] = 1.0
    molecules = [Molecule("lone", ("C",), np.zeros((1, 3)), {}),
                 random_molecule(np.random.default_rng(26), 2, elements=VOCAB, mol_id="pair")]
    graph = ad.Graph()
    out = message_step(graph, params, cfg, encode(cfg, molecules))
    # a loss of 1e308 times the sum of the [1, 3, hidden] atom rows
    loss = ad._result(graph, "sum", (out,), np.array([[1e308 * out.values.sum()]]),
                      lambda g: (np.full(out.shape, 1e308 * g[0, 0]),))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=r"^molecule pair, step 1: non-finite gradient "
                                                r"in backward rule of op 'message_step'$"):
        ad.backward(graph, loss)


def test_non_finite_embedding_gradient_names_the_table():
    # zero count embeddings keep huge count-weight columns out of the forward,
    # but the table's gradient passes through them and overflows
    params = small_params(seed=32)
    params.count_embedding.values[:] = 0.0
    cnt = 2 * (SMALL.atom_dim + SMALL.hidden_dim)
    params.gate_weight.values[:, cnt:cnt + SMALL.count_dim] = 1e308
    _, encodings = mixed_batch(SMALL, seed=33)
    graph = ad.Graph()
    loss = mse_loss(graph, forward_batch(graph, encodings, params, SMALL), [1e10] * 4)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=r"^non-finite gradient of 'count_embedding' "
                                                r"in backward rule of op 'message_step'$"):
        ad.backward(graph, loss)


def test_non_finite_readout_weight_gradient_names_the_weight():
    # activations of 1e300 into the output layer, whose weights of 1e-300 keep
    # the predictions small, and targets of 1e150: the loss is finite, but the
    # output weight's gradient, residuals of 1e150 times the activations, is not
    params = small_params(seed=87)
    last = len(params.mlp) - 1
    params.mlp[last - 1][1].values[:] = 1e300
    params.mlp[last][0].values[:] = 1e-300
    _, encodings = mixed_batch(SMALL, seed=88)
    graph = ad.Graph()
    loss = mse_loss(graph, forward_batch(graph, encodings, params, SMALL), [1e150] * 4)
    assert np.isfinite(loss.item())
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=rf"^non-finite gradient of 'readout_w{last}' "
                                                r"in backward rule of op 'readout'$"):
        ad.backward(graph, loss)


def test_a_recorded_batch_over_constant_params_gives_no_tensor_a_gradient():
    # a snapshot (ModelParams.copy(), as TrainResult.best_params keeps) holds
    # constants, the embedding tables among them, which the tape skips
    live = small_params(seed=89, max_atoms=9)
    params = live.copy()
    _, encodings = mixed_batch(SMALL, seed=90)
    graph = ad.Graph()
    preds = forward_batch(graph, encodings, params, SMALL)
    loss = mse_loss(graph, preds, [0.1, 0.2, 0.3, 0.4])
    ad.backward(graph, loss)
    assert all(t.grad is None for t in (*params.tensors(), preds, loss))
    assert preds.values.tobytes() == forward_batch(None, encodings, live, SMALL).values.tobytes()


def test_second_backward_through_the_recursion_raises():
    # the backward overwrites the grids it saved, so a rerun would be wrong
    params = small_params(seed=30)
    _, encodings = mixed_batch(SMALL, seed=31)
    graph = ad.Graph()
    loss = mse_loss(graph, forward_batch(graph, encodings, params, SMALL), [0.0] * 4)
    ad.backward(graph, loss)
    with pytest.raises(RuntimeError, match="back-propagated only once"):
        ad.backward(graph, loss)


def batch_gradients(params, cfg, encodings, targets):
    """Parameter gradients of the mean squared error of one recorded batch."""
    tensors = params.tensors()
    ad.zero_grads(tensors)
    graph = ad.Graph()
    ad.backward(graph, mse_loss(graph, forward_batch(graph, encodings, params, cfg), targets))
    return [t.grad.copy() for t in tensors]


def test_training_batches_reuse_the_recursion_workspace():
    # the grids of a warm batch stay allocated for the next one, so a repeat
    # of the batch allocates far less than its grids take
    cfg = ModelConfig()
    molecules = [random_molecule(np.random.default_rng(40 + n), n, elements=VOCAB)
                 for n in (12, 20, 29)]
    params = init_params(cfg, len(VOCAB), 29, seed=41)
    encodings = [MoleculeEncoding(m, VOCAB, cfg) for m in molecules]
    batch_gradients(params, cfg, encodings, [0.0] * 3)
    tracemalloc.start()
    try:
        batch_gradients(params, cfg, encodings, [0.0] * 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid_bytes = 2 * sum(m.natoms ** 2 for m in molecules) * cfg.hidden_dim * 8 * cfg.steps
    assert peak < grid_bytes / 2, (peak, grid_bytes)


def test_a_warm_backward_allocates_no_per_atom_terms_block(monkeypatch):
    # the backward lays its per-step adjoints, and their sum over steps, over
    # the forward-only blocks of its workspace, so it allocates no [ΣN, 4 hidden]
    # array of its own; the snapshot is taken as it hands the workspace back,
    # its last act, while the sum over steps is still in use
    cfg = ModelConfig()
    molecules = [random_molecule(np.random.default_rng(60 + n), n, elements=VOCAB)
                 for n in (12, 20, 29)]
    params = init_params(cfg, len(VOCAB), 29, seed=61)
    encodings = [MoleculeEncoding(m, VOCAB, cfg) for m in molecules]
    batch_gradients(params, cfg, encodings, [0.0] * 3)
    alive = []
    give = model._give_workspace

    def give_after_a_snapshot(buf):
        alive.extend(trace.size for trace in tracemalloc.take_snapshot().traces)
        give(buf)

    monkeypatch.setattr(model, "_give_workspace", give_after_a_snapshot)
    graph = ad.Graph()
    loss = mse_loss(graph, forward_batch(graph, encodings, params, cfg), [0.0] * 3)
    tracemalloc.start()
    try:
        ad.backward(graph, loss)
    finally:
        tracemalloc.stop()
    block = sum(m.natoms for m in molecules) * 4 * cfg.hidden_dim * 8
    assert alive and block not in alive, sorted(alive)[-5:]


def test_interleaved_graphs_keep_their_own_grids():
    # a graph holds its workspace from its forward to the end of its backward,
    # so forwards recorded or run in between cannot overwrite its grids
    params = small_params(seed=42, max_atoms=9)
    rng = np.random.default_rng(43)
    big = [MoleculeEncoding(m, VOCAB, SMALL)
           for m in random_molecules(44, 3, sizes=(9, 7, 5), elements=VOCAB)]
    small = [MoleculeEncoding(m, VOCAB, SMALL)
             for m in random_molecules(45, 2, sizes=(6, 4), elements=VOCAB)]
    big_targets, small_targets = rng.normal(size=3).tolist(), rng.normal(size=2).tolist()
    clean_big = batch_gradients(params, SMALL, big, big_targets)
    clean_small = batch_gradients(params, SMALL, small, small_targets)

    tensors = params.tensors()
    ad.zero_grads(tensors)
    graph_big, graph_small = ad.Graph(), ad.Graph()
    loss_big = mse_loss(graph_big, forward_batch(graph_big, big, params, SMALL), big_targets)
    forward_batch(None, small, params, SMALL)
    loss_small = mse_loss(graph_small, forward_batch(graph_small, small, params, SMALL),
                          small_targets)
    ad.backward(graph_small, loss_small)
    grads_small = [t.grad.copy() for t in tensors]
    ad.zero_grads(tensors)
    ad.backward(graph_big, loss_big)
    grads_big = [t.grad.copy() for t in tensors]
    for (name, _), a, b, c, d in zip(params.named(), grads_big, clean_big, grads_small,
                                     clean_small):
        assert np.array_equal(a, b) and np.array_equal(c, d), name


def test_gradients_after_an_overflowing_forward_are_clean():
    # the overflow leaves a workspace checked out and half written; the next
    # batch must not see it
    params = small_params(seed=46, max_atoms=9)
    encodings = [MoleculeEncoding(m, VOCAB, SMALL)
                 for m in random_molecules(47, 3, sizes=(9, 4, 6), elements=VOCAB)]
    targets = [0.5, -1.0, 2.0]
    clean = batch_gradients(params, SMALL, encodings, targets)
    broken = params.copy()
    broken.gate_weight.values[:] = 1e308
    broken.atom_embedding.values[:] = 1.0
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="'message_step'"):
        forward_batch(ad.Graph(), encodings, broken, SMALL)
    after = batch_gradients(params, SMALL, encodings, targets)
    for (name, _), a, b in zip(params.named(), after, clean):
        assert np.array_equal(a, b), name


def test_inference_builds_its_grids_in_the_reused_workspace():
    # a warm no-grad pass builds every molecule's joint gate and candidate grid
    # into the workspace's one grid slot, so it allocates less than one largest grid
    cfg = ModelConfig()
    molecules = [random_molecule(np.random.default_rng(50 + n), n, elements=VOCAB)
                 for n in (12, 20, 29)]
    params = init_params(cfg, len(VOCAB), 29, seed=51)
    encodings = [MoleculeEncoding(m, VOCAB, cfg) for m in molecules]
    forward_batch(None, encodings, params, cfg)
    tracemalloc.start()
    try:
        forward_batch(None, encodings, params, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid_bytes = 29 ** 2 * cfg.hidden_dim * 8
    assert peak < grid_bytes, (peak, grid_bytes)


@pytest.mark.parametrize("flag", [None, "use_atom_embedding"])
def test_inference_after_an_overflowing_inference_is_clean(flag):
    # the overflow leaves the workspace it took half written; the next no-grad
    # pass must read nothing of it
    cfg = SMALL if flag is None else replace(SMALL, **{flag: False})
    params = init_params(cfg, len(VOCAB), 9, seed=52)
    encodings = [MoleculeEncoding(m, VOCAB, cfg)
                 for m in random_molecules(53, 3, sizes=(9, 4, 6), elements=VOCAB)]
    clean = forward_batch(None, encodings, params, cfg).values
    broken = params.copy()
    broken.gate_weight.values[:] = 1e308
    broken.count_embedding.values[:] = 1.0
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="'message_step'"):
        forward_batch(None, encodings, broken, cfg)
    after = forward_batch(None, encodings, params, cfg).values
    assert np.array_equal(after, clean)


# ---------------------------------------------------------------------------
# batches: one disjoint union through every op


MIXED_SIZES = (1, 2, 5, 9)


def mixed_batch(cfg, seed=0):
    molecules = random_molecules(seed, len(MIXED_SIZES), sizes=MIXED_SIZES, elements=VOCAB)
    return molecules, [MoleculeEncoding(m, VOCAB, cfg) for m in molecules]


@pytest.mark.parametrize("flag", [None, "use_atom_embedding", "use_count_feature",
                                  "use_distance_feature"])
def test_batch_equals_per_molecule_forward(flag):
    cfg = replace(ModelConfig(), **{flag: False}) if flag else ModelConfig()
    params = init_params(cfg, len(VOCAB), 6, seed=17)  # 9 atoms clamp to the last row
    molecules, encodings = mixed_batch(cfg, seed=18)
    batch = forward_batch(None, encodings, params, cfg)
    assert batch.shape == (1, len(molecules))
    for j, mol in enumerate(molecules):
        # the readout runs each molecule's MLP on its own, so a batch changes no bit
        assert batch.values[0, j] == forward(None, mol, params, cfg, VOCAB).item(), (flag, j)


BATCHINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None,
                     suppress_health_check=list(HealthCheck))
# atom counts of the molecules that the batchings draw from: one-atom
# molecules, small ones whose batches have 2-6 atoms, and counts past the
# 6-row count table
BATCHING_SIZES = (1, 2, 1, 3, 4, 6, 9, 14, 29)


@functools.lru_cache(maxsize=None)
def batching_case(flag):
    """Default dims with ``flag`` off: params, the molecules' encodings and
    each molecule's prediction as a batch of one."""
    cfg = replace(ModelConfig(), **{flag: False}) if flag else ModelConfig()
    params = init_params(cfg, len(VOCAB), 6, seed=69)
    rng = np.random.default_rng(70)
    for _, b in params.mlp:                     # every layer of the readout is live
        b.values[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    encodings = encode(cfg, random_molecules(71, len(BATCHING_SIZES), sizes=BATCHING_SIZES,
                                             elements=VOCAB))
    alone = [forward_batch(None, [enc], params, cfg).values[0, 0] for enc in encodings]
    return cfg, params, encodings, alone


@pytest.mark.parametrize("flag", [None, "use_atom_embedding", "use_count_feature",
                                  "use_distance_feature"])
@BATCHINGS
@given(data=st.data())
def test_predictions_do_not_depend_on_the_batch(flag, data):
    # any order, any cut into batches, recorded or not: every molecule's
    # prediction has the bits of its batch of one
    cfg, params, encodings, alone = batching_case(flag)
    order = data.draw(st.permutations(range(len(encodings))), label="order")
    recorded = data.draw(st.booleans(), label="recorded")
    while order:
        chunk = data.draw(st.integers(1, len(order)), label="chunk")
        batch, order = order[:chunk], order[chunk:]
        graph = ad.Graph() if recorded else None
        preds = forward_batch(graph, [encodings[i] for i in batch], params, cfg).values[0]
        for i, value in zip(batch, preds):
            assert value.tobytes() == alone[i].tobytes(), (batch, i)


@pytest.mark.parametrize("flag", [None, "use_atom_embedding", "use_count_feature",
                                  "use_distance_feature"])
def test_recorded_and_unrecorded_predictions_are_bitwise_equal(flag):
    # both modes build every grid by the same calls into the same slot; they
    # differ only in where the activations are written
    cfg = replace(ModelConfig(), **{flag: False}) if flag else ModelConfig()
    params = init_params(cfg, len(VOCAB), 6, seed=23)  # 9 atoms clamp to the last row
    _, encodings = mixed_batch(cfg, seed=24)
    recorded = forward_batch(ad.Graph(), encodings, params, cfg).values
    assert np.array_equal(recorded, forward_batch(None, encodings, params, cfg).values)


def test_batch_gradients_equal_mean_of_per_molecule_gradients():
    params = small_params(seed=19, max_atoms=9)
    rng = np.random.default_rng(20)
    for _, b in params.mlp:  # keep ReLU pre-activations off the kink
        b.values[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    molecules, encodings = mixed_batch(SMALL, seed=21)
    targets = rng.normal(size=len(molecules)).tolist()
    tensors = params.tensors()

    def gradients(encs, tgts):
        ad.zero_grads(tensors)
        graph = ad.Graph()
        ad.backward(graph, mse_loss(graph, forward_batch(graph, encs, params, SMALL), tgts))
        return [t.grad.copy() for t in tensors]

    batch = gradients(encodings, targets)
    alone = [gradients([enc], [t]) for enc, t in zip(encodings, targets)]
    for k, (name, _) in enumerate(params.named()):
        mean = sum(grads[k] for grads in alone) / len(alone)
        scale = max(np.abs(mean).max(), 1e-300)
        assert np.abs(batch[k] - mean).max() <= 1e-10 * scale, name


def test_non_finite_pre_activation_names_the_molecule_in_its_batch():
    # a huge distance weight overflows only where two atoms are close together
    params = small_params(seed=22)
    params.gate_weight.values[:, -1] = 1e308
    molecules = [Molecule("far0", ("C", "H", "O"), [[0, 0, 0], [4, 0, 0], [0, 4, 0]], {}),
                 Molecule("far1", ("C", "C"), [[0, 0, 0], [0, 0, 4]], {}),
                 Molecule("close", ("C", "H"), [[0, 0, 0], [0.1, 0, 0]], {}),
                 Molecule("far3", ("N", "O"), [[0, 0, 0], [5, 0, 0]], {})]
    encodings = [MoleculeEncoding(m, VOCAB, SMALL) for m in molecules]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=r"^molecule close, step 0: .*'message_step'"):
        forward_batch(None, encodings, params, SMALL)
