import hashlib
import json
import struct

import numpy as np
import pytest

from ggrnet.checkpoint import FORMAT_VERSION, atomic_write, load_checkpoint, save_checkpoint
from ggrnet.data import Normalizer
from ggrnet.errors import CheckpointError
from ggrnet.model import ModelConfig, init_params

CFG = ModelConfig(atom_dim=3, count_dim=2, hidden_dim=4, mlp_dim=5, steps=2,
                  use_count_feature=False)
VOCAB = ["H", "C", "O"]


def write_checkpoint(path, seed=0):
    params = init_params(CFG, len(VOCAB), 6, seed=seed)
    save_checkpoint(path, params, CFG, VOCAB, Normalizer(mean=1.5, std=0.25),
                    "energy", unit="arb")
    return params


def rewrite_header(path, edit):
    """Apply ``edit`` to the decoded JSON header and write the file back."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20:20 + header_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + header_len:])


def test_round_trip_restores_everything(tmp_path):
    path = tmp_path / "model.ckpt"
    params = write_checkpoint(path)
    ckpt = load_checkpoint(path)
    assert ckpt.config == CFG
    assert ckpt.vocabulary == VOCAB
    assert ckpt.target_property == "energy"
    assert ckpt.unit == "arb"
    assert ckpt.normalizer == Normalizer(mean=1.5, std=0.25)
    assert ckpt.max_atom_count == 6
    for (name_a, ta), (name_b, tb) in zip(params.named(), ckpt.params.named()):
        assert name_a == name_b
        assert np.array_equal(ta.values, tb.values)
        assert tb.requires_grad


def test_save_load_save_is_byte_identical(tmp_path):
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    write_checkpoint(first)
    ckpt = load_checkpoint(first)
    save_checkpoint(second, ckpt.params, ckpt.config, ckpt.vocabulary, ckpt.normalizer,
                    ckpt.target_property, ckpt.unit)
    assert first.read_bytes() == second.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 40)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path)
    raw = bytearray(path.read_bytes())
    raw[8] = FORMAT_VERSION + 1
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 17])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_corrupt_header(tmp_path):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path)
    raw = bytearray(path.read_bytes())
    raw[25] ^= 0xFF  # flip a byte inside the JSON header
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["none.ckpt", "."])  # missing file, a directory
def test_unreadable_path(tmp_path, name):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / name)


@pytest.mark.parametrize("key", ["name", "rows", "cols"])
def test_manifest_entry_missing_key(tmp_path, key):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path)
    rewrite_header(path, lambda header: header["tensors"][3].pop(key))
    with pytest.raises(CheckpointError, match=f"fields: '{key}'"):
        load_checkpoint(path)


def test_header_missing_max_atom_count(tmp_path):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path)
    rewrite_header(path, lambda header: header.pop("max_atom_count"))
    with pytest.raises(CheckpointError, match="fields: 'max_atom_count'"):
        load_checkpoint(path)


def test_a_params_snapshot_saves_the_same_bytes(tmp_path):
    # training saves its best params from a snapshot without gradient buffers
    params = write_checkpoint(tmp_path / "params.ckpt")
    save_checkpoint(tmp_path / "copy.ckpt", params.copy(), CFG, VOCAB,
                    Normalizer(mean=1.5, std=0.25), "energy", unit="arb")
    assert (tmp_path / "copy.ckpt").read_bytes() == (tmp_path / "params.ckpt").read_bytes()


def test_file_bytes_are_pinned(tmp_path):
    # the exact bytes written for seed 0; any change to the format, the header
    # or the parameter draws shows here
    path = tmp_path / "x.ckpt"
    write_checkpoint(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "f987213dd2c1f780b8776ac99d14bbbf116349b95c888c1629a2119885bdb600"


def test_failed_save_keeps_previous_checkpoint(tmp_path):
    # the last tensor cannot be converted, so the save fails after the header
    # and all other tensors have been written
    path = tmp_path / "x.ckpt"
    params = write_checkpoint(path)
    before = path.read_bytes()
    params.mlp[-1][1].values = np.array([["not a number"]], dtype=object)
    with pytest.raises(ValueError):
        save_checkpoint(path, params, CFG, VOCAB, Normalizer(mean=1.5, std=0.25), "energy")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


def test_atomic_write_replaces_whole_or_not_at_all(tmp_path):
    path = tmp_path / "report.json"
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("old\n")
    with pytest.raises(OSError, match="disk full"):
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write("partial")
            raise OSError("disk full")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_wrong_tensor_set(tmp_path):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path)
    rewrite_header(path, lambda header: header["tensors"][3].update(name="extra_bias"))
    with pytest.raises(CheckpointError, match="tensor set"):
        load_checkpoint(path)


def test_wrong_tensor_shape(tmp_path):
    # gate_bias [4, 1] declared as [2, 2]: same payload size, wrong shape
    path = tmp_path / "x.ckpt"
    write_checkpoint(path)
    rewrite_header(path, lambda header: header["tensors"][3].update(rows=2, cols=2))
    with pytest.raises(CheckpointError, match=r"'gate_bias' has shape \(2, 2\), "
                                              r"expected \(4, 1\)"):
        load_checkpoint(path)
