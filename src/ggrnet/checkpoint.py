"""Self-describing versioned binary checkpoints.

Layout: 8-byte magic, little-endian uint32 format version, uint64 header
length, a canonical JSON header (model config, vocabulary, target +
normalizer, tensor manifest), then the raw little-endian float64 buffers in
manifest order. Serialization is canonical (sorted keys, no whitespace, no
timestamps), so save -> load -> save reproduces the file byte for byte.

Checkpoints and the run's other result files are written through
:func:`atomic_write`, so an interrupted write never leaves a partial file.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import Normalizer, repeated_symbol
from .errors import CheckpointError, NumericalError, writing
from .model import ModelConfig, ModelParams, param_shapes

__all__ = ["Checkpoint", "atomic_write", "save_checkpoint", "load_checkpoint",
           "FORMAT_VERSION"]

_MAGIC = b"GGRNETCK"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    params: ModelParams
    config: ModelConfig
    vocabulary: list[str]
    normalizer: Normalizer
    target_property: str
    unit: str = ""

    @property
    def max_atom_count(self) -> int:
        return self.params.max_atom_count


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """Open a temporary file next to ``path`` for writing and move it onto
    ``path`` with :func:`os.replace` once the block completes. If the block
    raises, the temporary file is removed and ``path`` keeps its previous
    content (or stays absent); an ``OSError`` is raised as an
    :class:`OutputError` that names ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with writing(path):
            with open(tmp, mode, **kwargs) as fh:
                yield fh
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, params: ModelParams, config: ModelConfig, vocabulary,
                    normalizer: Normalizer, target_property: str, unit: str = "") -> None:
    named = params.named()
    header = {
        "config": dataclasses.asdict(config),
        "vocabulary": list(vocabulary),
        "max_atom_count": params.max_atom_count,
        "target": {"property": target_property, "unit": unit,
                   "mean": normalizer.mean, "std": normalizer.std},
        "tensors": [{"name": name, "rows": t.rows, "cols": t.cols} for name, t in named],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for _, t in named:
            fh.write(np.ascontiguousarray(t.values, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise CheckpointError(f"{path}: cannot read checkpoint: {err.strerror}") from err
    if len(raw) < len(_MAGIC) + 12 or raw[:len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack_from("<IQ", raw, len(_MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version} "
                              f"(expected {FORMAT_VERSION})")
    body_start = len(_MAGIC) + 12
    try:
        header = json.loads(raw[body_start:body_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise CheckpointError(f"{path}: corrupt header: {err}") from err

    try:
        config = ModelConfig(**header["config"])
        vocabulary = [_typed(f"vocabulary[{i}]", sym, str)
                      for i, sym in enumerate(_typed("vocabulary", header["vocabulary"], list))]
        repeated = repeated_symbol(vocabulary)
        target = header["target"]
        normalizer = Normalizer(mean=float(_typed("target.mean", target["mean"], float)),
                                std=float(_typed("target.std", target["std"], float)))
        target_property = _typed("target.property", target["property"], str)
        unit = _typed("target.unit", target.get("unit", ""), str)
        manifest = [tuple(_typed(f"tensors[{i}].{key}", entry[key], kind)
                          for key, kind in (("name", str), ("rows", int), ("cols", int)))
                    for i, entry in enumerate(header["tensors"])]
        max_atom_count = _typed("max_atom_count", header["max_atom_count"], int)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CheckpointError(f"{path}: header has missing or malformed fields: {err}") from err
    for f in dataclasses.fields(config):
        if type(getattr(config, f.name)) is not type(f.default):
            raise CheckpointError(f"{path}: config.{f.name} must be of type "
                                  f"{type(f.default).__name__}, got {getattr(config, f.name)!r}")
    if repeated is not None:
        raise CheckpointError(f"{path}: vocabulary lists '{repeated}' twice")
    if max_atom_count < 1:
        raise CheckpointError(f"{path}: max_atom_count must be >= 1, got {max_atom_count}")
    for name, rows, cols in manifest:
        if rows < 0 or cols < 0:
            raise CheckpointError(f"{path}: tensor '{name}' has negative shape ({rows}, {cols})")

    tensors = {}
    offset = body_start + header_len
    for name, rows, cols in manifest:
        nbytes = rows * cols * 8
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload at tensor '{name}'")
        values = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=offset)
        try:
            tensors[name] = ad.parameter(values.reshape(rows, cols), name)
        except NumericalError as err:
            raise CheckpointError(f"{path}: {err}") from err
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after payload")

    params = _assemble_params(tensors, config, len(vocabulary), max_atom_count, path)
    return Checkpoint(params=params, config=config, vocabulary=vocabulary,
                      normalizer=normalizer, target_property=target_property, unit=unit)


def _typed(name: str, value, kind: type):
    """``value`` if it is of type ``kind`` (a float may be an int; a bool is
    neither), else a :class:`TypeError` naming header field ``name``."""
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise TypeError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def _assemble_params(tensors: dict, config: ModelConfig, vocab_size: int,
                     max_atom_count: int, path) -> ModelParams:
    expected = dict(param_shapes(config, vocab_size, max_atom_count))
    if set(tensors) != set(expected):
        raise CheckpointError(f"{path}: tensor set {sorted(tensors)} does not match "
                              f"expected {sorted(expected)}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise CheckpointError(f"{path}: tensor '{name}' has shape "
                                  f"{tensors[name].shape}, expected {shape}")
    return ModelParams.from_named(tensors)
