import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggrnet.data import (
    CommentSchema,
    Dataset,
    Molecule,
    Normalizer,
    SplitSpec,
    fit_normalizer,
    format_extended_xyz,
    inverse_distance,
    inverse_distance_matrix,
    iter_extended_xyz_records,
    load_dataset,
    parse_extended_xyz,
    parse_extended_xyz_records,
    parse_tabular,
    sample_dataset_path,
    split,
)
from ggrnet.errors import ConfigError, DataError, ParseError, VocabularyError
from ggrnet.synth import pairwise_inverse_distance_sum, random_molecules

SCHEMA = CommentSchema(id_columns=(0,), target_columns={"target_y": 1})


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


# ---------------------------------------------------------------------------
# extended XYZ


def test_parse_minimal_xyz():
    mol = parse_extended_xyz("1\nid0 0.5\nC 0.0 0.0 0.0", schema=SCHEMA)
    assert mol.natoms == 1
    assert mol.symbols == ("C",)
    assert mol.targets == {"target_y": 0.5}
    assert mol.mol_id == "id0"


def test_parse_counts_mismatch_reports_line():
    text = "3\nid0 0.5\nC 0 0 0\nH 0 0 1\n"
    with pytest.raises(ParseError, match="line 5"):
        parse_extended_xyz(text, schema=SCHEMA)


def test_parse_unknown_element_named():
    with pytest.raises(VocabularyError, match="'Xx'"):
        parse_extended_xyz("1\nid0 0.5\nXx 0 0 0", schema=SCHEMA)


def test_dataset_refuses_a_repeated_vocabulary_symbol():
    with pytest.raises(VocabularyError, match="lists 'C' twice"):
        Dataset([], [], ["H", "C", "C"])


def test_parse_non_numeric_coordinate():
    with pytest.raises(ParseError, match="line 3"):
        parse_extended_xyz("1\nid0 0.5\nC 0.0 zero 0.0", schema=SCHEMA)


def test_parse_rejects_nan_literal():
    with pytest.raises(ParseError):
        parse_extended_xyz("1\nid0 0.5\nC 0.0 nan 0.0", schema=SCHEMA)


def test_parse_accepts_crlf_bytes_and_extra_columns():
    text = b"2\r\nid7 1.25\r\nC 0.0 0.0 0.0 -0.3\r\nH 1.0 0.0 0.0 0.1\r\n"
    mol = parse_extended_xyz(text, schema=SCHEMA)
    assert mol.natoms == 2
    assert mol.targets["target_y"] == 1.25


def test_parse_mathematica_exponent():
    mol = parse_extended_xyz("1\nid0 1.5*^-3\nC 0 0 0", schema=SCHEMA)
    assert mol.targets["target_y"] == 1.5e-3


def test_parse_ignores_trailing_sections():
    text = "1\nid0 0.5\nC 0 0 0\n100.0 200.0\nSOMESTRING\n"
    mol = parse_extended_xyz(text, schema=SCHEMA)
    assert mol.natoms == 1


def test_parse_missing_schema_column():
    schema = CommentSchema(target_columns={"y": 5})
    with pytest.raises(ParseError, match="column 5"):
        parse_extended_xyz("1\nid0 0.5\nC 0 0 0", schema=schema)


def test_parse_without_schema_keeps_geometry_only():
    mol = parse_extended_xyz("1\nfirst-token 9.9\nC 0 0 0")
    assert mol.targets == {}
    assert mol.mol_id == "first-token"


def test_parse_records_multiple_and_blank_lines():
    text = "1\na 1.0\nC 0 0 0\n\n2\nb 2.0\nH 0 0 0\nH 1 0 0\n"
    mols = parse_extended_xyz_records(text, schema=SCHEMA)
    assert [m.mol_id for m in mols] == ["a", "b"]
    assert [m.natoms for m in mols] == [1, 2]


def test_parse_records_empty_input():
    with pytest.raises(ParseError, match="no records"):
        parse_extended_xyz_records("\n\n", schema=SCHEMA)


def test_records_stream_from_file_lines_as_from_the_whole_text(tmp_path):
    # a file's lines give the same records, and undecodable bytes name their line
    text = "1\na 1.0\nC 0 0 0\r\n\n2\nb 2.0\nH 0 0 0\nH 1 0 0"
    path = tmp_path / "m.xyz"
    path.write_bytes(text.encode())
    with open(path, "rb") as fh:
        streamed = list(iter_extended_xyz_records(fh, SCHEMA))
    whole = parse_extended_xyz_records(text, schema=SCHEMA)
    assert [(m.mol_id, m.symbols, m.coords.tolist()) for m in streamed] == \
           [(m.mol_id, m.symbols, m.coords.tolist()) for m in whole]
    for chunks, line in (([text.encode().replace(b"H 1", b"\xff 1")], 8),
                         ([b"1\n", b"a 1.0\n", b"\xff\n"], 3)):
        with pytest.raises(ParseError, match=f"^line {line}: not UTF-8 text$"):
            list(iter_extended_xyz_records(chunks, SCHEMA))


@pytest.mark.parametrize("source", ["xyz", "xyz-lines", "csv", "schema"])
def test_a_byte_order_mark_is_not_part_of_the_text(tmp_path, source):
    # as Windows editors write UTF-8: an XYZ file read whole or line by line,
    # a CSV file and a schema file
    bom = "\ufeff".encode()
    path = tmp_path / "file"
    if source == "schema":
        path.write_bytes(bom + b'{"id_columns": [0], "targets": {"target_y": 1}}')
        assert CommentSchema.from_file(path) == SCHEMA
        return
    if source == "csv":
        path.write_bytes(bom + b"id,atoms,coords,target_y\nm0,C H,0 0 0 1 0 0,1.5\n")
        molecules = load_dataset(path, "tabular")
    else:
        path.write_bytes(bom + b"2\nm0 1.5\nC 0 0 0\nH 1 0 0\n")
        with open(path, "rb") as fh:
            molecules = (load_dataset(path, "xyz", SCHEMA) if source == "xyz"
                         else list(iter_extended_xyz_records(fh, SCHEMA)))
    assert [(m.mol_id, m.symbols, m.targets) for m in molecules] == \
        [("m0", ("C", "H"), {"target_y": 1.5})]


def test_xyz_round_trip_preserves_geometry():
    for mol in random_molecules(3, 5):
        mol = Molecule(mol.mol_id, mol.symbols, mol.coords, {"target_y": 1.0})
        text = format_extended_xyz(mol, ["target_y"])
        back = parse_extended_xyz(text, schema=SCHEMA)
        assert back.natoms == mol.natoms
        assert back.symbols == mol.symbols
        assert np.allclose(back.coords, mol.coords, atol=5e-9)
        reprinted = format_extended_xyz(back, ["target_y"])
        assert reprinted == text


# ---------------------------------------------------------------------------
# tabular


def test_tabular_two_records():
    text = ("id,atoms,coords,y\n"
            "m0,C H,0 0 0 1 0 0,2.0\n"
            "m1,O H H,0 0 0 1 0 0 0 1 0,3.0\n")
    ds = parse_tabular(text)
    assert len(ds) == 2
    assert ds.max_atom_count == 3
    assert ds.property_names == ["y"]
    assert ds[1].targets["y"] == 3.0


def test_tabular_empty_file():
    with pytest.raises(DataError, match="no records"):
        parse_tabular("")
    with pytest.raises(DataError, match="no records"):
        parse_tabular("id,atoms,coords,y\n")


def test_tabular_nan_coordinate():
    with pytest.raises(ParseError, match="record 1"):
        parse_tabular("id,atoms,coords,y\nm0,C,0 nan 0,1.0\n")


def test_tabular_ragged_record_index():
    text = "id,atoms,coords,y\nm0,C,0 0 0,1.0\nm1,C,0 0 0\n"
    with pytest.raises(ParseError, match="record 2"):
        parse_tabular(text)


def test_tabular_coordinate_count_mismatch():
    with pytest.raises(ParseError, match="6"):
        parse_tabular("id,atoms,coords,y\nm0,C H,0 0 0,1.0\n")


def test_tabular_unknown_element():
    with pytest.raises(VocabularyError, match="'Zz'"):
        parse_tabular("id,atoms,coords,y\nm0,Zz,0 0 0,1.0\n")


@pytest.mark.parametrize("header, row, message", [
    ("id,atoms,coords,e,e", "m0,C,0 0 0,1.0,2.0", "header: column 5 repeats target name 'e'"),
    ("id,atoms,coords,e,", "m0,C,0 0 0,1.0,2.0", "header: column 5 has no target name"),
    ("id,atoms,coords, ,e", "m0,C,0 0 0,1.0,2.0", "header: column 4 has no target name"),
], ids=["repeated", "trailing-comma", "blank"])
def test_tabular_header_needs_distinct_named_targets(header, row, message):
    with pytest.raises(ParseError) as err:
        parse_tabular(f"{header}\n{row}\n")
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# molecule / dataset validation


def test_molecule_length_mismatch():
    with pytest.raises(DataError):
        Molecule("m", ("C", "H"), np.zeros((1, 3)), {})


def test_molecule_non_finite_coords():
    with pytest.raises(DataError):
        Molecule("m", ("C",), np.array([[0.0, np.inf, 0.0]]), {})


def test_dataset_missing_target():
    mol = Molecule("m", ("C",), np.zeros((1, 3)), {"a": 1.0})
    with pytest.raises(DataError, match="missing targets"):
        Dataset([mol], ["a", "b"])


def test_dataset_vocabulary_enforced():
    mol = Molecule("m", ("Si",), np.zeros((1, 3)), {})
    with pytest.raises(VocabularyError):
        Dataset([mol], [], element_vocabulary=("H", "C"))


# ---------------------------------------------------------------------------
# split


def _dataset_of(n, seed=0):
    mols = [Molecule(f"m{i}", ("C",), np.zeros((1, 3)), {"y": float(i)})
            for i in range(n)]
    return Dataset(mols, ["y"])


def test_split_sizes_10():
    tr, va, te = split(_dataset_of(10), SplitSpec(0.8, 0.1, 0.1, seed=7))
    assert (len(tr), len(va), len(te)) == (8, 1, 1)


def test_split_sizes_1000():
    tr, va, te = split(_dataset_of(1000), SplitSpec(0.8, 0.1, 0.1, seed=0))
    assert (len(tr), len(va), len(te)) == (800, 100, 100)


def test_split_deterministic_per_seed():
    ds = _dataset_of(30)
    spec = SplitSpec(seed=42)
    first = [tuple(m.mol_id for m in part) for part in split(ds, spec)]
    second = [tuple(m.mol_id for m in part) for part in split(ds, spec)]
    assert first == second
    different = [tuple(m.mol_id for m in part) for part in split(ds, SplitSpec(seed=43))]
    assert first != different


def test_split_disjoint_and_exhaustive():
    ds = _dataset_of(53)
    for seed in range(5):
        parts = split(ds, SplitSpec(seed=seed))
        ids = [m.mol_id for part in parts for m in part]
        assert len(ids) == 53
        assert len(set(ids)) == 53


def test_split_empty_partition_error():
    with pytest.raises(DataError, match="larger dataset"):
        split(_dataset_of(5), SplitSpec(0.8, 0.1, 0.1, seed=1))


def test_split_spec_validation():
    with pytest.raises(ConfigError, match="must sum to 1"):
        SplitSpec(0.8, 0.1, 0.2)
    with pytest.raises(ConfigError, match=r"^split\.train must be in \(0, 1\)"):
        SplitSpec(1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# normalizer


def test_fit_normalizer_hand_case():
    mols = [Molecule(f"m{i}", ("C",), np.zeros((1, 3)), {"y": y})
            for i, y in enumerate([1.0, 2.0, 3.0])]
    norm = fit_normalizer(Dataset(mols, ["y"]), "y")
    assert norm.mean == 2.0
    assert norm.std == 1.0
    assert [norm.normalize(y) for y in (1.0, 2.0, 3.0)] == [-1.0, 0.0, 1.0]


def test_fit_normalizer_zero_variance():
    mols = [Molecule(f"m{i}", ("C",), np.zeros((1, 3)), {"y": 5.0}) for i in range(2)]
    with pytest.raises(DataError, match="constant"):
        fit_normalizer(Dataset(mols, ["y"]), "y")


def test_fit_normalizer_needs_two():
    with pytest.raises(DataError, match="at least 2"):
        fit_normalizer(_dataset_of(1), "y")


@given(st.floats(-1e6, 1e6), st.floats(-100.0, 100.0), st.floats(0.01, 1e3))
def test_normalizer_round_trip(y, mean, std):
    norm = Normalizer(mean=mean, std=std)
    assert norm.invert(norm.normalize(y)) == pytest.approx(y, abs=1e-9 * max(1.0, abs(y)))


def test_normalizer_rejects_nonpositive_std():
    with pytest.raises(DataError):
        Normalizer(mean=0.0, std=0.0)


def test_normalized_training_targets_standardized():
    rng = np.random.default_rng(11)
    values = rng.normal(loc=4.2, scale=3.7, size=64)
    mols = [Molecule(f"m{i}", ("C",), np.zeros((1, 3)), {"y": float(v)})
            for i, v in enumerate(values)]
    norm = fit_normalizer(Dataset(mols, ["y"]), "y")
    z = norm.normalize(values)
    assert abs(z.mean()) < 1e-9
    assert abs(np.std(z, ddof=1) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# inverse distance


def test_inverse_distance_values():
    assert inverse_distance((0, 0, 0), (1, 0, 0)) == 1.0
    assert inverse_distance((0, 0, 0), (3, 4, 0)) == pytest.approx(0.2)
    assert inverse_distance((1, 1, 1), (1, 1, 1), epsilon=1e-6) == 1e6


@given(st.lists(st.floats(-50, 50), min_size=6, max_size=6))
def test_inverse_distance_symmetric(values):
    a, b = values[:3], values[3:]
    assert inverse_distance(a, b) == inverse_distance(b, a)


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_inverse_distance_rigid_motion_invariant(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3)
    rot = random_rotation(rng)
    shift = rng.uniform(-10, 10, 3)
    before = inverse_distance(a, b)
    after = inverse_distance(rot @ a + shift, rot @ b + shift)
    assert after == pytest.approx(before, abs=1e-9)


def test_inverse_distance_matrix_matches_pairwise():
    rng = np.random.default_rng(12)
    coords = rng.uniform(0, 3, (5, 3))
    mat = inverse_distance_matrix(coords)
    assert np.array_equal(np.diag(mat), np.zeros(5))
    for i in range(5):
        for j in range(5):
            if i != j:
                assert mat[i, j] == pytest.approx(inverse_distance(coords[i], coords[j]))
    assert np.allclose(mat, mat.T)
    # the synthetic targets' sum over the matrix has the bits of the scalar loop
    for mol in random_molecules(13, 40, size_range=(1, 40)):
        total = 0.0
        for i in range(mol.natoms):
            for j in range(i + 1, mol.natoms):
                total += inverse_distance(mol.coords[i], mol.coords[j])
        assert pairwise_inverse_distance_sum(mol).hex() == total.hex()


# ---------------------------------------------------------------------------
# loading


def test_load_missing_path_names_it(tmp_path):
    with pytest.raises(DataError, match="nowhere.xyz"):
        load_dataset(tmp_path / "nowhere.xyz")


def test_load_directory_sorted_order(tmp_path):
    for name, sym in (("b.xyz", "H"), ("a.xyz", "C")):
        (tmp_path / name).write_text(f"1\n{name} 1.0\n{sym} 0 0 0\n")
    ds = load_dataset(tmp_path, schema=SCHEMA)
    assert [m.mol_id for m in ds] == ["a.xyz", "b.xyz"]


def test_load_directory_names_a_record_without_an_id_after_its_file(tmp_path):
    for name, comment in (("b.xyz", ""), ("a.xyz", ""), ("c.xyz", "named 1.0")):
        (tmp_path / name).write_text(f"1\n{comment}\nC 0 0 0\n")
    assert [m.mol_id for m in load_dataset(tmp_path)] == ["a", "b", "named"]
    by_target = CommentSchema(target_columns={"y": 1})            # no id columns
    assert [m.mol_id for m in load_dataset(tmp_path / "c.xyz", schema=by_target)] == ["mol0"]
    (tmp_path / "a.xyz").write_text("1\nx 2.0\nC 0 0 0\n")
    (tmp_path / "b.xyz").write_text("1\nx 3.0\nC 0 0 0\n")
    assert [m.mol_id for m in load_dataset(tmp_path, schema=by_target)] == ["a", "b", "c"]


@pytest.mark.parametrize("fmt", ["tabular", "nope"])
def test_load_directory_refuses_a_format_other_than_xyz(tmp_path, fmt):
    (tmp_path / "a.xyz").write_text("1\na 1.0\nC 0 0 0\n")
    with pytest.raises(DataError, match=f"format '{fmt}' cannot read directory"):
        load_dataset(tmp_path, fmt)
    assert len(load_dataset(tmp_path, "xyz")) == len(load_dataset(tmp_path, "auto")) == 1


def test_builtin_sample_dataset():
    ds = load_dataset(sample_dataset_path(), "xyz", CommentSchema.builtin("sample"))
    assert len(ds) == 10
    assert ds.property_names == ["energy", "size"]
    assert ds.units["energy"] == "arb"
    assert 3 <= ds.max_atom_count <= 8


def test_builtin_qm9_schema_loads():
    schema = CommentSchema.builtin("qm9")
    assert schema.target_columns["HOMO"] == 7
    assert schema.units["mu"] == "Debye"
    with pytest.raises(DataError):
        CommentSchema.builtin("missing")
