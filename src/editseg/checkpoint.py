"""A trained run on disk: a single-file binary checkpoint, format tag
"run-v1", and its JSON sidecar.

Layout: a little-endian uint32 header length, a JSON header mapping array
names to dtypes, shapes and byte offsets plus free-form metadata, then the
raw little-endian array payloads. Each array is stored in its header dtype:
``"<f4"`` for a float32 array, ``"<f8"`` for anything else (cast to
float64). An entry without a dtype, as every file written before the field
existed has, reads as ``"<f8"``. Arrays are sorted by name and the header is
canonicalized, so identical state always produces identical bytes (seeded
runs must give bitwise-identical checkpoints). A file is written under a
temporary name beside its target and then renamed onto it, so a save cut
off partway leaves the previous file whole. Loading checks the header's
structure, dtypes and every array's byte range against the file, and that
every stored value is finite, so a truncated or corrupt file, or one holding
a NaN or infinity, raises ``CheckpointError`` rather than a numpy or JSON
error or a model that computes garbage.

``save_model`` writes a ``Rewriter``: its arrays, under the names
``model.array_table`` gives them, and beside the file, at ``<path>.json``,
a sidecar holding the format tag, the model config, the tokenization mode,
the vocabulary, the connection words and ``connection_k``. The header's
metadata holds the run's place: ``epoch`` and ``best_dev_em``, and in a
resumable ``.last`` file also ``best_epoch`` and ``adam_step``, with Adam's
moments stored as ``adam.m.<parameter>`` and ``adam.v.<parameter>``.
``load_model`` checks all of it, the sidecar's format tag included, against
the sidecar's config before it builds the model.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .dialogue import ConnectionWordList, Tokenization
from .kernels import AdamState
from .model import ModelConfig, RewriteModel, Rewriter, Vocabulary, array_table, is_parameter

FORMAT_TAG = "run-v1"
PAYLOAD_DTYPES = ("<f4", "<f8")  # a header entry without a dtype is "<f8"


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# Run metadata a checkpoint may carry, each with the test its value must pass.
_META_CHECKS = {
    **dict.fromkeys(("adam_step", "epoch", "best_epoch"), (_is_count, "a non-negative integer")),
    # An exact match share, or -1 before any epoch; NaN fails both bounds.
    "best_dev_em": (lambda v: type(v) in (int, float) and -1 <= v <= 1, "a number in [-1, 1]"),
}


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None):
    names = sorted(arrays)
    stored = {}
    header_arrays = {}
    offset = 0
    for name in names:
        arr = np.asarray(arrays[name])
        arr = stored[name] = arr.astype("<f4" if arr.dtype == np.float32 else "<f8", copy=False)
        header_arrays[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset}
        offset += arr.nbytes
    header = {"format": FORMAT_TAG, "arrays": header_arrays, "meta": meta or {}}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )
    with replacing(path) as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            # tobytes() always emits C order, so no contiguity fixup needed
            # (ascontiguousarray would also silently promote 0-d to 1-d).
            fh.write(stored[name].tobytes())


@contextmanager
def replacing(path):
    """A binary file to write in place of ``path``: ``<path>.tmp``, renamed onto
    ``path`` once the block ends and its bytes are on disk. If the block raises,
    the temporary file is removed and ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the block raised
            os.remove(tmp)


class CheckpointError(ValueError):
    """A checkpoint file or its sidecar is unreadable or does not fit the model."""


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; a truncated, malformed or non-finite file raises ``CheckpointError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise CheckpointError(f"{path}: truncated checkpoint of {len(raw)} bytes")
    (header_len,) = struct.unpack_from("<I", raw)
    payload_start = 4 + header_len
    if payload_start > len(raw):
        raise CheckpointError(
            f"{path}: header of {header_len} bytes overruns the {len(raw)}-byte file"
        )
    try:
        header = json.loads(raw[4:payload_start].decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"{path}: unreadable header: {exc}") from None
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != FORMAT_TAG:
        raise CheckpointError(f"unsupported checkpoint format: {fmt!r}")
    entries, meta = header.get("arrays"), header.get("meta")
    if not isinstance(entries, dict) or not isinstance(meta, dict):
        raise CheckpointError(f'{path}: header needs an "arrays" object and a "meta" object')
    arrays = {}
    for name, info in entries.items():
        shape = info.get("shape") if isinstance(info, dict) else None
        offset = info.get("offset") if isinstance(info, dict) else None
        if not (isinstance(shape, list) and all(map(_is_count, shape)) and _is_count(offset)):
            raise CheckpointError(
                f"{path}: array {name!r} needs a shape of non-negative integers and a "
                f"non-negative integer offset, got {info!r}"
            )
        tag = info.get("dtype", "<f8")
        if not isinstance(tag, str) or tag not in PAYLOAD_DTYPES:
            raise CheckpointError(
                f"{path}: array {name!r} has dtype {tag!r}, not one of {list(PAYLOAD_DTYPES)}"
            )
        dtype = np.dtype(tag)
        count = math.prod(shape)
        start = payload_start + offset
        end = start + dtype.itemsize * count
        if end > len(raw):
            raise CheckpointError(
                f"{path}: array {name!r} of shape {shape} needs bytes "
                f"{start}..{end} of a {len(raw)}-byte file"
            )
        try:
            flat = np.frombuffer(raw, dtype=dtype, count=count, offset=start)
            arrays[name] = flat.reshape(shape).astype(dtype.type)
        except ValueError as exc:  # an empty array with dimensions numpy cannot hold
            raise CheckpointError(f"{path}: array {name!r} of shape {shape}: {exc}") from None
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"{path}: array {name!r} holds a NaN or infinite value")
    return arrays, meta


def _sidecar_path(path) -> str:
    return str(path) + ".json"


def _adam_names(config: ModelConfig) -> dict[str, str]:
    """The checkpoint name of each Adam moment, mapped to its parameter: every
    ``adam.m.<parameter>``, then every ``adam.v.<parameter>``, each in the
    order of ``RewriteModel.parameters`` and of ``AdamState``'s lists."""
    params = [name for name in array_table(config) if is_parameter(name)]
    return {f"adam.{kind}.{name}": name for kind in "mv" for name in params}


def save_model(path, rw: Rewriter, adam: AdamState | None = None, meta: dict | None = None):
    """Write ``rw`` to ``path`` and its sidecar; with ``adam``, also Adam's step
    and moments, which resuming a run needs."""
    meta = dict(meta or {})
    arrays = rw.model.state()
    if adam is not None:
        meta["adam_step"] = adam.step
        arrays |= dict(zip(_adam_names(rw.model.config), [*adam.m, *adam.v]))
    save_checkpoint(path, arrays, meta)
    sidecar = {
        "format": FORMAT_TAG,
        "model_config": rw.model.config.to_dict(),
        "tokenization": rw.tokenization,
        "vocab": rw.vocab.words,
        "connection_words": list(rw.conn.words),
        "connection_k": rw.k,
    }
    with replacing(_sidecar_path(path)) as fh:
        fh.write(json.dumps(sidecar, ensure_ascii=False, sort_keys=True).encode("utf-8"))


def load_model(path) -> Rewriter:
    """Rebuild a trained model from a checkpoint pair (``path`` and its sidecar).

    The arrays must have exactly the names and shapes that ``array_table``
    lists for the sidecar's config; anything else raises ``CheckpointError``.
    They are cast to the model's float32, so float64 files load too. The
    model is built from them directly; nothing is drawn.
    """
    return load_run(path)[0]


def load_run(path) -> tuple[Rewriter, dict, AdamState | None]:
    """``load_model`` plus the run's metadata and, if saved, the Adam state."""
    arrays, meta = load_checkpoint(path)
    sidecar_path = _sidecar_path(path)
    with open(sidecar_path, encoding="utf-8") as fh:
        try:
            sidecar = json.load(fh)
            if sidecar["format"] != FORMAT_TAG:
                raise ValueError(f"format {sidecar['format']!r} is not {FORMAT_TAG!r}")
            config = ModelConfig.from_dict(sidecar["model_config"])
            tokenization = Tokenization(sidecar["tokenization"]).value
            words, conn_words = sidecar["vocab"], sidecar.get("connection_words", [])
            k = sidecar.get("connection_k", 0)
            if not (_is_str_list(words) and _is_str_list(conn_words)):
                raise TypeError("vocab and connection_words must be lists of strings")
            if not (_is_count(k) and k <= len(conn_words)):
                raise ValueError(f"connection_k {k!r} is not an integer in [0, {len(conn_words)}]")
            vocab = Vocabulary(words)
            conn = ConnectionWordList(conn_words)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{sidecar_path}: bad sidecar: {exc!r}") from None
    for key, (valid, what) in _META_CHECKS.items():
        if key in meta and not valid(meta[key]):
            raise CheckpointError(f"{path}: {key} {meta[key]!r} is not {what}")
    if vocab.size != config.vocab_size:
        raise CheckpointError(
            f"{sidecar_path}: {vocab.size} vocabulary ids but vocab_size {config.vocab_size}"
        )
    expected = array_table(config)
    adam_names = _adam_names(config) if "adam_step" in meta else {}
    expected |= {name: expected[param] for name, param in adam_names.items()}
    if set(arrays) != set(expected):
        raise CheckpointError(
            f"{path}: arrays missing {sorted(set(expected) - set(arrays))}, "
            f"unexpected {sorted(set(arrays) - set(expected))}"
        )
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"{path}: array {name!r} has shape {list(arrays[name].shape)}, "
                f"but the sidecar's model config needs {list(shape)}"
            )
    model = RewriteModel.from_arrays(config, arrays)
    moments = [arrays[name].astype(np.float32) for name in adam_names]
    half = len(moments) // 2
    adam = AdamState(meta["adam_step"], moments[:half], moments[half:]) if adam_names else None
    return Rewriter(model, vocab, conn, k, tokenization), meta, adam
