"""Straight-line reference recursion step and forward pass for oracle comparisons.

Pure Python floats, lists, and explicit pair loops; shares no code path
with the vectorized implementation it is used to check.
"""
import math


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def straightline_step(molecule, params, cfg, vocabulary, h) -> list[list[float]]:
    """Next hidden state of every atom from ``h`` (one list per atom): the mean
    over all ``n`` atoms of the messages each receives from the other atoms.
    A switched-off feature enters as zeros."""
    n = molecule.natoms
    hidden = cfg.hidden_dim
    vocab_index = {s: i for i, s in enumerate(vocabulary)}
    atom_table = params.atom_embedding.values.tolist()
    count_table = params.count_embedding.values.tolist()
    gate_w = params.gate_weight.values.tolist()
    gate_b = [row[0] for row in params.gate_bias.values.tolist()]
    cand_w = params.candidate_weight.values.tolist()
    cand_b = [row[0] for row in params.candidate_bias.values.tolist()]
    coords = molecule.coords.tolist()

    if cfg.use_atom_embedding:
        atom_vecs = [atom_table[vocab_index[s]] for s in molecule.symbols]
    else:
        atom_vecs = [[0.0] * cfg.atom_dim for _ in molecule.symbols]
    if cfg.use_count_feature:
        count_vec = count_table[min(n, len(count_table)) - 1]
    else:
        count_vec = [0.0] * cfg.count_dim

    def inv_dist(v: int, w: int) -> float:
        if not cfg.use_distance_feature:
            return 0.0
        dx = coords[v][0] - coords[w][0]
        dy = coords[v][1] - coords[w][1]
        dz = coords[v][2] - coords[w][2]
        return 1.0 / max(math.sqrt(dx * dx + dy * dy + dz * dz), cfg.distance_epsilon)

    nxt = []
    for v in range(n):
        acc = [0.0] * hidden
        for w in range(n):
            if w == v:
                continue
            inp = atom_vecs[v] + h[v] + atom_vecs[w] + h[w] + count_vec + [inv_dist(v, w)]
            for i in range(hidden):
                p = gate_b[i]
                q = cand_b[i]
                for j, xj in enumerate(inp):
                    p += gate_w[i][j] * xj
                    q += cand_w[i][j] * xj
                acc[i] += _sigmoid(p) * math.tanh(q)
        nxt.append([a / n for a in acc])
    return nxt


def straightline_forward(molecule, params, cfg, vocabulary) -> float:
    n = molecule.natoms
    hidden = cfg.hidden_dim
    h = [[0.0] * hidden for _ in range(n)]
    for _ in range(cfg.steps):
        h = straightline_step(molecule, params, cfg, vocabulary, h)

    vec = [sum(h[v][i] for v in range(n)) / n for i in range(hidden)]
    last = len(params.mlp) - 1
    for k, (wt, bt) in enumerate(params.mlp):
        weights = wt.values.tolist()
        biases = [row[0] for row in bt.values.tolist()]
        out = []
        for i in range(len(weights)):
            s = biases[i]
            for j, xj in enumerate(vec):
                s += weights[i][j] * xj
            out.append(s if k == last else max(s, 0.0))
        vec = out
    return vec[0]
