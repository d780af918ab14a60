"""Checkpoint binary format: round trip, determinism, and version gating."""

import json
import struct

import numpy as np
import pytest
from _cutoff import CutOff

from editseg import checkpoint
from editseg.checkpoint import FORMAT_TAG, load_checkpoint, load_model, save_checkpoint, save_model
from editseg.dialogue import EMPTY_CONNECTION_WORDS
from editseg.model import ModelConfig, Rewriter, RewriteModel, Vocabulary


def test_round_trip_preserves_arrays_and_meta(tmp_path):
    arrays = {
        "b.weights": np.arange(6, dtype=float).reshape(2, 3),
        "a.scalarish": np.array(3.5),
    }
    meta = {"epoch": 4, "note": "héllo"}
    path = tmp_path / "m.run"
    save_checkpoint(path, arrays, meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert np.array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == np.float64


def test_identical_state_gives_identical_bytes(tmp_path):
    arrays = {"w": np.linspace(0, 1, 7)}
    save_checkpoint(tmp_path / "a", arrays, {"epoch": 1})
    save_checkpoint(tmp_path / "b", arrays, {"epoch": 1})
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_float32_round_trip_keeps_dtype_and_gives_identical_bytes(tmp_path):
    arrays = {
        "w": np.linspace(0, 1, 7, dtype=np.float32).reshape(7, 1),
        "s": np.float32(0.1).reshape(()),
        "d": np.linspace(0, 1, 3),
    }
    save_checkpoint(tmp_path / "a", arrays, {"epoch": 1})
    save_checkpoint(tmp_path / "b", arrays, {"epoch": 1})
    raw = (tmp_path / "a").read_bytes()
    assert raw == (tmp_path / "b").read_bytes()
    (n,) = struct.unpack_from("<I", raw)
    header = json.loads(raw[4 : 4 + n])
    assert {name: e["dtype"] for name, e in header["arrays"].items()} == {
        "w": "<f4", "s": "<f4", "d": "<f8"
    }
    assert len(raw) == 4 + n + 4 * 8 + 8 * 3  # float32 payloads take 4 bytes a value
    loaded, _ = load_checkpoint(tmp_path / "a")
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert np.array_equal(loaded[name], arr)


def test_model_checkpoint_holds_c_order_bytes_and_reloads_byte_identically(tmp_path):
    # The model keeps its conv kernels in the layout their GEMMs read, not in
    # C order; the file still holds every array's C-order bytes, and a model
    # loaded from it saves the same file again.
    vocab = Vocabulary([f"w{i}" for i in range(8)])
    config = ModelConfig(vocab_size=vocab.size, embed_dim=6, hidden_dim=5, base_channels=3)
    model = RewriteModel(config, seed=7)
    for name in ("down1.conv1.k", "down1.conv2.k"):  # kn2row, im2col
        assert not model.tensors[name].data.flags.c_contiguous, name
    save_model(tmp_path / "a.run", Rewriter(model, vocab, EMPTY_CONNECTION_WORDS, 0, "whitespace"))
    save_model(tmp_path / "b.run", load_model(tmp_path / "a.run"))
    raw = (tmp_path / "a.run").read_bytes()
    assert raw == (tmp_path / "b.run").read_bytes()
    state = model.state()
    payload = b"".join(np.ascontiguousarray(state[name]).tobytes() for name in sorted(state))
    (n,) = struct.unpack_from("<I", raw)
    assert raw[4 + n :] == payload


@pytest.mark.parametrize("cut", [0, 1], ids=["checkpoint", "sidecar"])
def test_a_save_cut_off_partway_leaves_the_previous_file(tmp_path, monkeypatch, cut):
    # Writing in place truncated the file first: a run killed mid-save lost
    # its last good checkpoint.
    vocab = Vocabulary(["a", "b"])
    model = RewriteModel(ModelConfig(vocab_size=vocab.size, embed_dim=4, hidden_dim=3, base_channels=2))
    rw = Rewriter(model, vocab, EMPTY_CONNECTION_WORDS, 0, "whitespace")
    path = tmp_path / "m.run"
    save_model(path, rw, meta={"epoch": 0})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    model.tensors["head.b"].data += 1.0
    opened = []

    def cut_open(file, *args, **kwargs):
        opened.append(file)
        fh = open(file, *args, **kwargs)
        return CutOff(fh) if len(opened) == cut + 1 else fh

    monkeypatch.setattr(checkpoint, "open", cut_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        save_model(path, rw, meta={"epoch": 1})
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == ["m.run", "m.run.json"]  # no temporary file left
    written = sorted(after)[cut]
    assert after[written] == before[written]
    load_model(path)


def test_unknown_format_tag_rejected(tmp_path):
    path = tmp_path / "m.run"
    save_checkpoint(path, {"w": np.zeros(2)}, {})
    raw = path.read_bytes()
    tampered = raw.replace(FORMAT_TAG.encode(), b"run-v9")
    path.write_bytes(tampered)
    with pytest.raises(ValueError, match="run-v9"):
        load_checkpoint(path)
