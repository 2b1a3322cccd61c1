"""Molecule data model, file ingestion, splitting, and target normalization.

Two ingest paths are supported: extended-XYZ (atom count line, property
comment line, one ``symbol x y z [extras]`` line per atom) and a tabular
fallback (delimited records with header ``id, atoms, coords, <targets...>``).
Both validate element symbols against a configurable vocabulary and reject
non-finite coordinates. Extended-XYZ files are parsed as they are read, one
line at a time.
"""
from __future__ import annotations

import codecs
import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, ParseError, VocabularyError

__all__ = [
    "DEFAULT_ELEMENTS",
    "DATASET_FORMATS",
    "Molecule",
    "Dataset",
    "Normalizer",
    "SplitSpec",
    "CommentSchema",
    "split",
    "fit_normalizer",
    "inverse_distance",
    "inverse_distance_matrix",
    "parse_extended_xyz",
    "iter_extended_xyz_records",
    "read_extended_xyz",
    "read_lines",
    "read_text",
    "format_extended_xyz",
    "parse_tabular",
    "load_dataset",
    "sample_dataset_path",
]

DEFAULT_ELEMENTS: tuple[str, ...] = ("H", "C", "N", "O", "F", "S", "Cl")

DEFAULT_DISTANCE_EPSILON = 1e-6

DATASET_FORMATS = ("auto", "xyz", "tabular")


def repeated_symbol(vocabulary: Iterable[str]) -> str | None:
    """The first symbol that a vocabulary lists twice, or ``None``. A repeated
    symbol would map to its last row, so its other embedding rows would never
    be read."""
    seen = set()
    for sym in vocabulary:
        if sym in seen:
            return sym
        seen.add(sym)
    return None


@dataclass(frozen=True)
class Molecule:
    """One molecule: element symbols, 3-D coordinates in Angstrom, targets."""

    mol_id: str
    symbols: tuple[str, ...]
    coords: np.ndarray  # [N, 3] float64
    targets: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise DataError(f"molecule '{self.mol_id}': coords must be [N, 3], got {coords.shape}")
        if len(self.symbols) != coords.shape[0] or coords.shape[0] < 1:
            raise DataError(
                f"molecule '{self.mol_id}': {len(self.symbols)} symbols vs {coords.shape[0]} coordinates")
        if not np.isfinite(coords).all():
            raise DataError(f"molecule '{self.mol_id}': non-finite coordinates")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "targets", dict(self.targets))

    @property
    def natoms(self) -> int:
        return len(self.symbols)


class Dataset:
    """Ordered molecule collection plus the metadata shared by all of them."""

    def __init__(self, molecules: Sequence[Molecule], property_names: Sequence[str],
                 element_vocabulary: Sequence[str] = DEFAULT_ELEMENTS,
                 units: Mapping[str, str] | None = None):
        self.molecules = list(molecules)
        self.property_names = list(property_names)
        self.element_vocabulary = list(element_vocabulary)
        self.units = dict(units or {})
        repeated = repeated_symbol(self.element_vocabulary)
        if repeated is not None:
            raise VocabularyError(f"vocabulary {self.element_vocabulary} lists '{repeated}' twice")
        vocab = set(self.element_vocabulary)
        for mol in self.molecules:
            for sym in mol.symbols:
                if sym not in vocab:
                    raise VocabularyError(
                        f"molecule '{mol.mol_id}': element '{sym}' not in vocabulary {self.element_vocabulary}")
            missing = [p for p in self.property_names if p not in mol.targets]
            if missing:
                raise DataError(f"molecule '{mol.mol_id}' is missing targets {missing}")

    @property
    def max_atom_count(self) -> int:
        if not self.molecules:
            return 0
        return max(m.natoms for m in self.molecules)

    def __len__(self) -> int:
        return len(self.molecules)

    def __iter__(self) -> Iterator[Molecule]:
        return iter(self.molecules)

    def __getitem__(self, i: int) -> Molecule:
        return self.molecules[i]

    def subset(self, indices: Iterable[int]) -> "Dataset":
        return Dataset([self.molecules[i] for i in indices], self.property_names,
                       self.element_vocabulary, self.units)

    def target_values(self, name: str) -> np.ndarray:
        if name not in self.property_names:
            raise DataError(f"unknown target property '{name}'; have {self.property_names}")
        return np.array([m.targets[name] for m in self.molecules])


@dataclass(frozen=True)
class Normalizer:
    """Training-set mean/std of one target, with forward and inverse maps."""

    mean: float
    std: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0 < self.std < math.inf):
            raise DataError(f"normalizer needs a finite mean and a positive finite std, "
                            f"got {self.mean} and {self.std}")

    def normalize(self, y):
        return (y - self.mean) / self.std

    def invert(self, z):
        return z * self.std + self.mean


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test ratios plus the RNG seed that fixes the permutation."""

    train: float = 0.8
    val: float = 0.1
    test: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, r in (("train", self.train), ("val", self.val), ("test", self.test)):
            if not (0.0 < r < 1.0):
                raise ConfigError(f"split.{name} must be in (0, 1), got {r}")
        if abs(self.train + self.val + self.test - 1.0) > 1e-12:
            raise ConfigError(f"split.train, split.val and split.test must sum to 1, "
                              f"got {self.train + self.val + self.test}")
        if not self.seed >= 0:
            raise ConfigError(f"split.seed must be >= 0, got {self.seed}")


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seed-deterministic random partition into train/val/test.

    Validation and test sizes are ``floor(N * ratio)``; the remainder goes
    to the training partition.
    """
    n = len(ds)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    n_val = int(math.floor(n * spec.val))
    n_test = int(math.floor(n * spec.test))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) == 0:
        raise DataError(
            f"split of {n} molecules gives sizes ({n_train}, {n_val}, {n_test}); use a larger dataset")
    perm = np.random.default_rng(spec.seed).permutation(n)
    return (ds.subset(perm[:n_train]),
            ds.subset(perm[n_train:n_train + n_val]),
            ds.subset(perm[n_train + n_val:]))


def fit_normalizer(train: Dataset, property_name: str) -> Normalizer:
    """Mean/std (sample std, n-1 denominator) of one target over the training set."""
    values = train.target_values(property_name)
    if len(values) < 2:
        raise DataError(f"need at least 2 molecules to fit a normalizer, got {len(values)}")
    std = float(np.std(values, ddof=1))
    if std == 0.0:
        raise DataError(f"target '{property_name}' is constant over the training set")
    return Normalizer(mean=float(np.mean(values)), std=std)


# ---------------------------------------------------------------------------
# geometry


def inverse_distance(a, b, epsilon: float = DEFAULT_DISTANCE_EPSILON) -> float:
    """Reciprocal Euclidean distance, floored at ``epsilon`` for coincident points."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = float(np.sqrt(((a - b) ** 2).sum()))
    return 1.0 / max(d, epsilon)


def inverse_distance_matrix(coords: np.ndarray, epsilon: float = DEFAULT_DISTANCE_EPSILON) -> np.ndarray:
    """Symmetric [N, N] matrix of reciprocal pair distances; diagonal is zero."""
    coords = np.asarray(coords, dtype=np.float64)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, 1.0)  # placeholder; diagonal is zeroed below
    inv = 1.0 / np.maximum(dist, epsilon)
    np.fill_diagonal(inv, 0.0)
    return inv


# ---------------------------------------------------------------------------
# extended-XYZ ingestion


@dataclass(frozen=True)
class CommentSchema:
    """Maps named targets to whitespace-separated columns of the comment line.

    ``id_columns`` are joined with ``_`` to form the molecule id. Units are
    carried as metadata only and never enter any computation.
    """

    id_columns: tuple[int, ...] = ()
    target_columns: Mapping[str, int] = field(default_factory=dict)
    units: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "id_columns", tuple(self.id_columns))
        object.__setattr__(self, "target_columns", dict(self.target_columns))
        object.__setattr__(self, "units", dict(self.units))

    @property
    def property_names(self) -> list[str]:
        return list(self.target_columns)

    @staticmethod
    def from_file(path) -> "CommentSchema":
        """Read a JSON schema through :func:`read_text`; every way the file can
        be unusable raises a :class:`DataError` or :class:`ParseError` that
        names it as ``schema '<path>'``."""
        name = f"schema '{path}'"
        try:
            raw = json.loads(read_text(path, name))
        except (json.JSONDecodeError, RecursionError) as err:
            raise DataError(f"{name}: malformed JSON: {err}") from err
        if not isinstance(raw, dict):
            raise DataError(f"{name}: not a JSON object")
        ids, targets = raw.get("id_columns", []), raw.get("targets", {})
        units = raw.get("units", {})
        if not (isinstance(targets, dict) and all(map(_is_column, targets.values()))):
            raise DataError(f"{name}: 'targets' must map names to non-negative column numbers")
        if not (isinstance(ids, list) and all(map(_is_column, ids))):
            raise DataError(f"{name}: 'id_columns' must be a list of non-negative column numbers")
        if not (isinstance(units, dict) and all(isinstance(u, str) for u in units.values())):
            raise DataError(f"{name}: 'units' must map names to strings")
        return CommentSchema(id_columns=tuple(ids), target_columns=targets, units=units)

    @staticmethod
    def builtin(name: str) -> "CommentSchema":
        path = resources.files("ggrnet") / "assets" / f"{name}_schema.json"
        if not path.is_file():
            raise DataError(f"schema 'builtin:{name}': no builtin schema of that name")
        return CommentSchema.from_file(path)


def _is_column(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _as_text(text, first_line: int = 1) -> str:
    """``text`` as str, bytes decoded as UTF-8, without the byte-order mark
    that may start line 1; undecodable bytes raise a :class:`ParseError`
    naming their line, counted from ``first_line``."""
    if not isinstance(text, bytes):
        return text
    if first_line == 1:
        # stripped here, not by a codec whose error offsets would skip it
        text = text.removeprefix(codecs.BOM_UTF8)
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as err:
        # the lines before the bad byte, the one it is on included
        before = text[:err.start].decode("utf-8") + "."
        raise ParseError(f"line {first_line + len(before.splitlines()) - 1}: "
                         f"not UTF-8 text") from None


def _text_lines(chunks: Iterable[str | bytes]) -> Iterator[str]:
    """The lines, as ``str.splitlines`` splits them, of the text that
    ``chunks`` join to; each chunk (str, or UTF-8 bytes) ends at a line break
    or at the end of the text, as the lines of a file or the whole text do."""
    lineno = 1
    for chunk in chunks:
        lines = _as_text(chunk, lineno).splitlines()
        lineno += len(lines)
        yield from lines


def _parse_float(token: str, position: str) -> float:
    # some quantum-chemistry exports use Mathematica-style exponents (1.23*^-4)
    try:
        value = float(token.replace("*^", "e"))
    except ValueError:
        raise ParseError(f"{position}: cannot parse '{token}' as a number") from None
    if not math.isfinite(value):
        raise ParseError(f"{position}: non-finite value '{token}'")
    return value


def _parse_xyz_record(lines: Iterator[str], start: int, count_line: str,
                      schema: CommentSchema | None, vocab: set[str],
                      fallback_id: str) -> Molecule:
    """Parse the record whose atom count line, ``count_line``, is line
    ``start`` (1-based), taking the record's other lines from ``lines``;
    ``vocab`` is the set of known element symbols."""
    count_line = count_line.strip()
    try:
        natoms = int(count_line)
    except ValueError:
        raise ParseError(f"line {start}: expected an atom count, got '{count_line}'") from None
    if natoms < 1:
        raise ParseError(f"line {start}: atom count must be >= 1, got {natoms}")
    comment = next(lines, None)
    if comment is None:
        raise ParseError(f"line {start + 1}: missing property record line")
    comment_fields = comment.split()

    mol_id = fallback_id
    targets: dict[str, float] = {}
    if schema is not None:
        if schema.id_columns:
            try:
                mol_id = "_".join(comment_fields[c] for c in schema.id_columns)
            except IndexError:
                raise ParseError(f"line {start + 1}: property record has only "
                                 f"{len(comment_fields)} fields; id columns {schema.id_columns} missing") from None
        for name, col in schema.target_columns.items():
            if col >= len(comment_fields):
                raise ParseError(f"line {start + 1}: property record has only "
                                 f"{len(comment_fields)} fields; column {col} for '{name}' missing")
            targets[name] = _parse_float(comment_fields[col], f"line {start + 1}, field {col}")
    elif comment_fields:
        mol_id = comment_fields[0]

    symbols: list[str] = []
    coords: list[list[float]] = []
    for i in range(natoms):
        lineno = start + 2 + i
        line = next(lines, None)
        if line is None:
            raise ParseError(f"line {lineno}: expected atom line {i + 1} of {natoms}, "
                             "found end of input")
        fields = line.split()
        if len(fields) < 4:
            raise ParseError(f"line {lineno}: atom line needs 'symbol x y z', got '{line}'")
        sym = fields[0]
        if sym not in vocab:
            raise VocabularyError(f"line {lineno}: unknown element symbol '{sym}'")
        symbols.append(sym)
        coords.append([_parse_float(token, f"line {lineno}") for token in fields[1:4]])
    return Molecule(mol_id=mol_id, symbols=tuple(symbols), coords=coords, targets=targets)


def _xyz_records(chunks: Iterable[str | bytes], schema: CommentSchema | None,
                 vocabulary: Sequence[str], fallback_id: str | None) -> Iterator[Molecule]:
    """The record loop of :func:`iter_extended_xyz_records`, where a record
    that names no id takes ``fallback_id``, or ``mol<k>`` if it is ``None``."""
    lines = _text_lines(chunks)
    vocab = set(vocabulary)
    lineno = count = 0
    for line in lines:
        lineno += 1
        if not line.strip():
            continue
        mol = _parse_xyz_record(lines, lineno, line, schema, vocab,
                                f"mol{count}" if fallback_id is None else fallback_id)
        lineno += 1 + mol.natoms
        count += 1
        yield mol
    if not count:
        raise ParseError("line 1: no records")


def parse_extended_xyz(text, schema: CommentSchema | None = None,
                       vocabulary: Sequence[str] = DEFAULT_ELEMENTS,
                       fallback_id: str = "mol0") -> Molecule:
    """The first record of an extended-XYZ text (str, or UTF-8 bytes), read
    as :func:`iter_extended_xyz_records` reads it; its id is ``fallback_id``
    if it names none. Content after its declared atom lines (vibrational
    data, string identifiers, and similar trailers) is never parsed."""
    return next(_xyz_records([text], schema, vocabulary, fallback_id))


def iter_extended_xyz_records(chunks: Iterable[str | bytes], schema: CommentSchema | None = None,
                              vocabulary: Sequence[str] = DEFAULT_ELEMENTS) -> Iterator[Molecule]:
    """Parse concatenated extended-XYZ records one at a time, reading no
    further into ``chunks`` than the record being parsed. ``chunks`` are
    pieces of the text, each ending at a line break or at the end of the
    text: the lines of a file opened in binary or text mode, or the whole
    text as one piece. Blank lines between records are skipped, and a
    record that names no id is ``mol<k>``, k counting records from 0."""
    return _xyz_records(chunks, schema, vocabulary, None)


def read_lines(path, name: str) -> Iterator[bytes]:
    """The lines of the file (or pipe) at ``path``, read in binary one at a
    time. An ``OSError`` from opening or reading it, or a NUL byte in
    ``path``, raises a :class:`DataError` that names the file as ``name``."""
    try:
        with open(path, "rb") as fh:
            yield from fh
    except (OSError, ValueError) as err:
        raise DataError(f"{name}: cannot read: {getattr(err, 'strerror', err)}") from err


def read_extended_xyz(path, name: str, schema: CommentSchema | None = None,
                      vocabulary: Sequence[str] = DEFAULT_ELEMENTS,
                      fallback_id: str | None = None) -> Iterator[Molecule]:
    """The records of the extended-XYZ file (or pipe) at ``path``, read by
    :func:`read_lines` and parsed one at a time by the record loop of
    :func:`iter_extended_xyz_records`, where a record that names no id takes
    ``fallback_id``, or ``mol<k>`` if it is ``None``. Its errors name the
    file as ``name``. Close the iterator to close the file early."""
    with contextlib.closing(read_lines(path, name)) as lines:
        try:
            yield from _xyz_records(lines, schema, vocabulary, fallback_id)
        except (ParseError, VocabularyError) as err:
            raise type(err)(f"{name}: {err}") from None


def read_text(path, name: str) -> str:
    """The text of the file at ``path``, read by :func:`read_lines` and
    decoded by :func:`_as_text`, whose error also names the file as ``name``."""
    try:
        return _as_text(b"".join(read_lines(path, name)))
    except ParseError as err:
        raise ParseError(f"{name}: {err}") from None


def format_extended_xyz(mol: Molecule, property_order: Sequence[str] | None = None) -> str:
    """Render one molecule as an extended-XYZ record (id + targets on line 2,
    coordinates to 8 decimals)."""
    names = list(property_order) if property_order is not None else sorted(mol.targets)
    comment = " ".join([mol.mol_id] + [repr(float(mol.targets[name])) for name in names])
    lines = [str(mol.natoms), comment]
    for sym, (x, y, z) in zip(mol.symbols, mol.coords):
        lines.append(f"{sym} {x:.8f} {y:.8f} {z:.8f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tabular ingestion

_TABULAR_FIXED = ("id", "atoms", "coords")


def parse_tabular(text, vocabulary: Sequence[str] = DEFAULT_ELEMENTS,
                  delimiter: str = ",") -> Dataset:
    """Parse delimiter-separated molecules: header ``id, atoms, coords, <targets...>``.

    ``atoms`` is a space-separated symbol list and ``coords`` the matching
    flattened ``x y z`` triples.
    """
    reader = csv.reader(io.StringIO(_as_text(text)), delimiter=delimiter)
    try:
        rows = list(reader)
    except csv.Error as err:
        raise ParseError(f"line {reader.line_num}: {err}") from None
    rows = [row for row in rows if row and any(f.strip() for f in row)]
    if not rows:
        raise DataError("no records")
    header = [h.strip() for h in rows[0]]
    if tuple(header[:3]) != _TABULAR_FIXED:
        raise ParseError(f"header must start with {_TABULAR_FIXED}, got {header[:3]}")
    target_names = header[3:]
    for k, name in enumerate(target_names):
        if not name:
            raise ParseError(f"header: column {4 + k} has no target name")
        if name in target_names[:k]:
            raise ParseError(f"header: column {4 + k} repeats target name '{name}'")
    if len(rows) == 1:
        raise DataError("no records")

    vocab = set(vocabulary)
    molecules: list[Molecule] = []
    for rec_idx, row in enumerate(rows[1:], start=1):
        where = f"record {rec_idx}"
        if len(row) != len(header):
            raise ParseError(f"{where}: expected {len(header)} fields, got {len(row)}")
        mol_id = row[0].strip()
        symbols = row[1].split()
        if not symbols:
            raise ParseError(f"{where}: empty atom list")
        for sym in symbols:
            if sym not in vocab:
                raise VocabularyError(f"{where}: unknown element symbol '{sym}'")
        flat = [_parse_float(tok, where) for tok in row[2].split()]
        if len(flat) != 3 * len(symbols):
            raise ParseError(f"{where}: {len(symbols)} atoms need {3 * len(symbols)} "
                             f"coordinates, got {len(flat)}")
        coords = np.array(flat).reshape(-1, 3)
        targets = {name: _parse_float(row[3 + i], where) for i, name in enumerate(target_names)}
        molecules.append(Molecule(mol_id=mol_id, symbols=tuple(symbols), coords=coords,
                                  targets=targets))
    return Dataset(molecules, target_names, vocabulary)


# ---------------------------------------------------------------------------
# high-level loading


def sample_dataset_path() -> Path:
    """Path of the bundled 10-molecule synthetic demo dataset."""
    return Path(str(resources.files("ggrnet") / "assets" / "sample10.xyz"))


def load_dataset(path, fmt: str = "auto", schema: CommentSchema | None = None,
                 vocabulary: Sequence[str] = DEFAULT_ELEMENTS) -> Dataset:
    """Load a dataset from a file or a directory of per-molecule XYZ files.

    ``fmt`` is ``xyz``, ``tabular``, or ``auto`` (tabular for ``.csv``,
    XYZ otherwise); a directory is read as XYZ only. Directory entries are
    read in sorted name order so the dataset order never depends on
    filesystem iteration, and a file whose record names no id gives it the
    file's stem. A parse or vocabulary error names the file it is in.
    """
    path = Path(path)
    if path.is_dir():
        if fmt not in ("auto", "xyz"):
            raise DataError(f"format '{fmt}' cannot read directory {path}; "
                            "a directory holds .xyz files")
        files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".xyz")
        if not files:
            raise DataError(f"no .xyz files under directory {path}")
        molecules = []
        for p in files:
            # only the record is read, and the file is closed before the next
            with contextlib.closing(read_extended_xyz(p, p.name, schema, vocabulary,
                                                      p.stem)) as records:
                molecules.append(next(records))
    else:
        if fmt == "auto":
            fmt = "tabular" if path.suffix.lower() in (".csv", ".tsv") else "xyz"
        if fmt not in ("tabular", "xyz"):
            raise DataError(f"unknown dataset format '{fmt}'")
        if fmt == "tabular":
            delim = "\t" if path.suffix.lower() == ".tsv" else ","
            with contextlib.closing(read_lines(path, str(path))) as lines:
                try:
                    return parse_tabular(b"".join(lines), vocabulary, delimiter=delim)
                except (ParseError, VocabularyError) as err:
                    raise type(err)(f"{path}: {err}") from None
        molecules = list(read_extended_xyz(path, str(path), schema, vocabulary))
    if schema is None:
        return Dataset(molecules, [], vocabulary)
    return Dataset(molecules, schema.property_names, vocabulary, schema.units)
