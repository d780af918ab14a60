"""Single-file binary checkpoints, format tag "run-v1".

Layout: a little-endian uint32 header length, a JSON header mapping array
names to shapes and byte offsets plus free-form metadata, then the raw
float64 little-endian array payloads. Arrays are sorted by name and the
header is canonicalized, so identical state always produces identical bytes
(seeded runs must give bitwise-identical checkpoints). Loading checks the
header's structure and every array's byte range against the file, so a
truncated or corrupt file raises ``CheckpointError`` rather than a numpy or
JSON error.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

FORMAT_TAG = "run-v1"


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None):
    names = sorted(arrays)
    header_arrays = {}
    offset = 0
    for name in names:
        arr = np.asarray(arrays[name], dtype="<f8")
        header_arrays[name] = {"shape": list(arr.shape), "offset": offset}
        offset += arr.nbytes
    header = {"format": FORMAT_TAG, "arrays": header_arrays, "meta": meta or {}}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            # tobytes() always emits C order, so no contiguity fixup needed
            # (ascontiguousarray would also silently promote 0-d to 1-d).
            fh.write(np.asarray(arrays[name], dtype="<f8").tobytes())


class CheckpointError(ValueError):
    """A checkpoint file or its sidecar is unreadable or does not fit the model."""


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; a truncated or malformed file raises ``CheckpointError``."""
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
        count = math.prod(shape)
        start = payload_start + offset
        end = start + 8 * count
        if end > len(raw):
            raise CheckpointError(
                f"{path}: array {name!r} of shape {shape} needs bytes "
                f"{start}..{end} of a {len(raw)}-byte file"
            )
        try:
            flat = np.frombuffer(raw, dtype="<f8", count=count, offset=start)
            arrays[name] = flat.reshape(shape).astype(np.float64)
        except ValueError as exc:  # an empty array with dimensions numpy cannot hold
            raise CheckpointError(f"{path}: array {name!r} of shape {shape}: {exc}") from None
    return arrays, meta


def _is_count(value) -> bool:
    return type(value) is int and value >= 0
