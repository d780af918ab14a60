"""Single-file binary checkpoints, format tag "run-v1".

Layout: a little-endian uint32 header length, a JSON header mapping array
names to shapes and byte offsets plus free-form metadata, then the raw
float64 little-endian array payloads. Arrays are sorted by name and the
header is canonicalized, so identical state always produces identical bytes
(seeded runs must give bitwise-identical checkpoints). Loading checks the
header and every array's byte range against the file, so a truncated or
corrupt file raises ``CheckpointError`` rather than a numpy error.
"""

from __future__ import annotations

import json
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
    arrays = {}
    for name, info in header["arrays"].items():
        shape = tuple(info["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = payload_start + info["offset"]
        end = start + 8 * count
        if min(shape, default=0) < 0 or start < payload_start or end > len(raw):
            raise CheckpointError(
                f"{path}: array {name!r} of shape {list(shape)} needs bytes "
                f"{start}..{end} of a {len(raw)}-byte file"
            )
        arrays[name] = (
            np.frombuffer(raw, dtype="<f8", count=count, offset=start)
            .reshape(shape)
            .astype(np.float64)
        )
    return arrays, header["meta"]
