"""Property-based fuzzing of every path that reads outside input: each may
raise only the package's own errors, which the CLI maps to exit codes.

The examples are derandomized and no example database is kept, so every run
tries the same inputs.
"""
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ggrnet.checkpoint import load_checkpoint, save_checkpoint
from ggrnet.config import resolve_schema
from ggrnet.data import CommentSchema, Normalizer, parse_extended_xyz_records, parse_tabular
from ggrnet.errors import CheckpointError, GgrnetError
from ggrnet.model import ModelConfig, init_params

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                suppress_health_check=list(HealthCheck))
VOCAB = ("H", "C", "O")

# tokens that sit on the edges of what the parsers accept
NUMBERS = st.sampled_from(["0", "1", "-1", "2", "1e308", "1e999", "nan", "-inf", "1.5*^-3",
                           "0x10", "1_0", "", "x", "٣", "99999999999999999999"])
SYMBOLS = st.sampled_from(["H", "C", "O", "Xx", "c", "", "é"])


def _one_of_lines(*lines):
    return st.lists(st.one_of(*lines), max_size=12).map("\n".join)


XYZ_LINES = _one_of_lines(
    NUMBERS,
    st.tuples(st.text(max_size=4), NUMBERS, NUMBERS).map(" ".join),
    st.tuples(SYMBOLS, NUMBERS, NUMBERS, NUMBERS).map(" ".join),
    st.text(max_size=10))


def _raises_only_package_errors(call, *args):
    try:
        call(*args)
    except GgrnetError:
        pass


@FUZZ
@example(b"1\nm\nC 0 0 \xff", None)
@example("99999999999999999999\nm\nC 0 0 0", None)
@given(st.one_of(XYZ_LINES, XYZ_LINES.map(str.encode), st.binary(max_size=40)),
       st.sampled_from([None, CommentSchema(id_columns=(0,), target_columns={"e": 1}),
                        CommentSchema(target_columns={"e": 5})]))
def test_extended_xyz_records_raise_only_package_errors(text, schema):
    _raises_only_package_errors(parse_extended_xyz_records, text, schema, VOCAB)


TABULAR_ROWS = _one_of_lines(
    st.just("id,atoms,coords,e"),
    st.tuples(st.text(max_size=3), st.lists(SYMBOLS, max_size=3).map(" ".join),
              st.lists(NUMBERS, max_size=7).map(" ".join), NUMBERS).map(",".join),
    st.text(max_size=12))


@FUZZ
@example("\r,,,0", ",")
@example(b"id,atoms,coords\n\xff", ",")
@given(st.one_of(TABULAR_ROWS, TABULAR_ROWS.map(str.encode), st.binary(max_size=40)),
       st.sampled_from([",", "\t"]))
def test_tabular_raises_only_package_errors(text, delimiter):
    _raises_only_package_errors(parse_tabular, text, VOCAB, delimiter)


def _write(data: bytes) -> str:
    fd, path = tempfile.mkstemp()
    with os.fdopen(fd, "wb") as fh:
        fh.write(data)
    return path


def _load_bytes(call, data: bytes):
    path = _write(data)
    try:
        _raises_only_package_errors(call, path)
    finally:
        os.unlink(path)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    cfg = ModelConfig(atom_dim=2, count_dim=2, hidden_dim=2, mlp_dim=2, steps=1)
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(path, init_params(cfg, len(VOCAB), 3, seed=0), cfg, VOCAB,
                    Normalizer(0.0, 1.0), "e")
    return path.read_bytes()


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


def _header_edit(raw: bytes, edit) -> bytes:
    """``raw`` with one value of its JSON header replaced, found by a path of
    keys and indices, the header length rewritten to match."""
    start = 8 + 12
    length = int.from_bytes(raw[12:20], "little")
    header = json.loads(raw[start:start + length])
    path, value = edit
    node = header
    for key in path[:-1]:
        node = node[key] if isinstance(node, dict) else node[key % len(node)]
    if isinstance(node, dict):
        node[path[-1]] = value
    elif node:
        node[path[-1] % len(node)] = value
    blob = json.dumps(header).encode()
    return raw[:12] + len(blob).to_bytes(8, "little") + blob + raw[start + length:]


HEADER_PATHS = st.sampled_from([
    ("config",), ("config", "hidden_dim"), ("config", "distance_epsilon"), ("config", "steps"),
    ("vocabulary",), ("max_atom_count",), ("target",), ("target", "std"), ("target", "mean"),
    ("tensors",), ("tensors", 0), ("tensors", 0, "rows"), ("tensors", 2, "cols"),
    ("tensors", 1, "name"), ("unknown",)])


@FUZZ
@given(st.data())
def test_checkpoint_load_raises_only_package_errors(checkpoint_bytes, data):
    raw = checkpoint_bytes
    kind = data.draw(st.sampled_from(["flip", "truncate", "header", "bytes"]))
    if kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
    elif kind == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "header":
        raw = _header_edit(raw, (data.draw(HEADER_PATHS),
                                 data.draw(st.one_of(JSON_VALUES, st.integers()))))
    else:
        raw = raw[:20] + data.draw(st.binary(max_size=60))
    _load_bytes(load_checkpoint, raw)


SCHEMA_JSON = st.fixed_dictionaries(
    {}, optional={"id_columns": JSON_VALUES, "targets": JSON_VALUES, "units": JSON_VALUES})


@FUZZ
@given(st.one_of(SCHEMA_JSON.map(lambda d: json.dumps(d).encode()),
                 JSON_VALUES.map(lambda v: json.dumps(v).encode()),
                 st.binary(max_size=30)))
def test_schema_file_raises_only_package_errors(data):
    _load_bytes(resolve_schema, data)


@FUZZ
@example("\x00")
@given(st.one_of(st.text(max_size=12), st.text(max_size=8).map("builtin:".__add__)))
def test_schema_spec_raises_only_package_errors(spec):
    _raises_only_package_errors(resolve_schema, spec)


@pytest.mark.parametrize("edit", [(("tensors", 0, "rows"), -1), (("tensors", 1, "name"), []),
                                  (("target",), {"mean": 0.0, "std": 1.0})])
def test_malformed_checkpoint_headers_found_by_fuzzing(checkpoint_bytes, edit):
    path = _write(_header_edit(checkpoint_bytes, edit))
    try:
        with pytest.raises(CheckpointError, match="missing or malformed|negative shape|"
                                                  "does not match"):
            load_checkpoint(path)
    finally:
        os.unlink(path)


def test_deeply_nested_json_is_a_package_error(checkpoint_bytes):
    nested = b"[" * 100_000 + b"]" * 100_000
    _load_bytes(resolve_schema, nested)
    _load_bytes(load_checkpoint,
                checkpoint_bytes[:12] + len(nested).to_bytes(8, "little") + nested)
