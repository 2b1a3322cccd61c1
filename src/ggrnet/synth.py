"""Synthetic, geometrically valid molecules for demos and self-tests.

None of this is real chemistry: coordinates are random points with a
minimum-separation constraint, and the bundled targets are simple geometric
or compositional functions that a working model must be able to learn.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import Dataset, Molecule, inverse_distance_matrix

__all__ = [
    "random_molecule",
    "random_molecules",
    "pairwise_inverse_distance_sum",
    "carbon_count",
    "geometric_dataset",
    "composition_dataset",
]


# the side of the cube random molecules are drawn in, the least distance
# between two of their atoms, and the elements their atoms are drawn from
BOX = 4.0
MIN_SEPARATION = 0.7
ELEMENTS = ("H", "C", "N", "O")


def random_molecule(rng: np.random.Generator, n_atoms: int,
                    elements: Sequence[str] = ELEMENTS,
                    mol_id: str = "synth0") -> Molecule:
    """Random atoms in a cube with all pair distances >= :data:`MIN_SEPARATION`, of side
    :data:`BOX` or, if larger, ``1.5 MIN_SEPARATION n_atoms^(1/3)``: rejection sampling
    finds no place in a nearly full cube (past about 175 atoms in a cube of side BOX)."""
    side = max(BOX, 1.5 * MIN_SEPARATION * n_atoms ** (1 / 3))
    symbols = tuple(rng.choice(list(elements), size=n_atoms))
    coords = np.empty((n_atoms, 3))
    placed = 0
    while placed < n_atoms:
        candidate = rng.uniform(0.0, side, size=3)
        if placed == 0 or np.linalg.norm(coords[:placed] - candidate, axis=1).min() >= MIN_SEPARATION:
            coords[placed] = candidate
            placed += 1
    return Molecule(mol_id=mol_id, symbols=symbols, coords=coords)


def random_molecules(seed: int, count: int, size_range: tuple[int, int] = (3, 8),
                     sizes: Sequence[int] | None = None,
                     elements: Sequence[str] = ELEMENTS) -> list[Molecule]:
    """Deterministic batch of random molecules.

    Atom counts are sampled from the inclusive ``size_range`` unless
    ``sizes`` gives them explicitly (cycled if shorter than ``count``).
    """
    rng = np.random.default_rng(seed)
    if sizes is not None:
        picked = [int(sizes[i % len(sizes)]) for i in range(count)]
    else:
        picked = [int(rng.integers(size_range[0], size_range[1] + 1)) for _ in range(count)]
    return [random_molecule(rng, picked[i], elements, mol_id=f"synth{i}")
            for i in range(count)]


def pairwise_inverse_distance_sum(mol: Molecule) -> float:
    """Sum of reciprocal distances over unordered atom pairs, in row-major
    order of the upper triangle, one addition at a time (``sum`` and
    ``np.sum`` would round otherwise)."""
    total = 0.0
    for value in inverse_distance_matrix(mol.coords)[np.triu_indices(mol.natoms, 1)].tolist():
        total += value
    return total


def carbon_count(mol: Molecule) -> float:
    return float(sum(1 for s in mol.symbols if s == "C"))


def _with_target(mol: Molecule, name: str, value: float) -> Molecule:
    targets = dict(mol.targets)
    targets[name] = value
    return Molecule(mol_id=mol.mol_id, symbols=mol.symbols, coords=mol.coords, targets=targets)


def geometric_dataset(count: int, seed: int, n_atoms=(3, 8),
                      property_name: str = "energy") -> Dataset:
    """Molecules whose target is the sum of pairwise reciprocal distances.

    The target is a pure function of geometry, which makes it a sharp probe
    for the distance feature: with distances removed the model cannot do
    better than predicting the mean.
    """
    mols = [(_with_target(m, property_name, pairwise_inverse_distance_sum(m)))
            for m in random_molecules(seed, count, size_range=n_atoms)]
    return Dataset(mols, [property_name], units={property_name: "arb"})


def composition_dataset(count: int, seed: int, n_atoms: int = 5) -> Dataset:
    """Fixed-size molecules whose target ``ncarbon`` is the number of carbon atoms.

    All molecules share the same atom count, so the count feature carries no
    information about this target.
    """
    mols = [(_with_target(m, "ncarbon", carbon_count(m)))
            for m in random_molecules(seed, count, sizes=(n_atoms,))]
    return Dataset(mols, ["ncarbon"], units={"ncarbon": "count"})
