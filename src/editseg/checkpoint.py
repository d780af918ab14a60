"""Single-file binary checkpoints, format tag "run-v1".

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
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

FORMAT_TAG = "run-v1"
PAYLOAD_DTYPES = ("<f4", "<f8")  # a header entry without a dtype is "<f8"


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


def _is_count(value) -> bool:
    return type(value) is int and value >= 0
