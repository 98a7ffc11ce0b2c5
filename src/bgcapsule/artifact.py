"""Binary model persistence.

Layout: 4-byte magic ``BGC1``, a u64 little-endian length plus JSON
header (config, variant knobs, vocabulary), then a u64 record count and
one record per tensor: u64 name length, name bytes, u64 rank, u64 dims,
float32 little-endian payload in row-major order. Loading checks every
length against the bytes left in the file before allocating, reads each
payload straight into its final array and rejects a non-finite value.
The model is then built from the records: each stage takes its tensors
from them, checked against the shapes the header's config gives, and
nothing is drawn, so the loader allocates only what the file's bytes
pay for. A bad file, header values included, is rejected with a
``DataError`` naming it. Saving replaces the file whole or not at all.
Round-trips are bitwise.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .config import read_run_entries, run_entries
from .errors import ConfigError, ContractError, DataError
from .model import TextClassifier
from .text import EmbeddingTable, Vocabulary

MAGIC = b"BGC1"
FORMAT_VERSION = 1


def _write_u64(handle, value: int) -> None:
    handle.write(struct.pack("<Q", value))


class _Reader:
    """Reads records of an open artifact, checking every length against
    the bytes left in the file before anything is allocated."""

    def __init__(self, handle, path):
        self.handle = handle
        self.path = path
        self.left = os.fstat(handle.fileno()).st_size - handle.tell()

    def _claim(self, count: int, what: str) -> None:
        if count > self.left:
            raise DataError(
                f"{self.path}: {what} needs {count} bytes but only {self.left} are left"
            )
        self.left -= count

    def read(self, count: int, what: str) -> bytes:
        self._claim(count, what)
        data = self.handle.read(count)
        if len(data) != count:
            raise DataError(f"{self.path}: truncated while reading {what}")
        return data

    def u64s(self, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}Q", self.read(8 * count, what))

    def u64(self, what: str) -> int:
        return self.u64s(1, what)[0]

    def float32s(self, dims: tuple[int, ...], what: str) -> np.ndarray:
        if 0 in dims:  # no model tensor is empty, and a 0 would hide the other extents
            raise DataError(f"{self.path}: {what} has a zero extent in {dims}")
        self._claim(4 * math.prod(dims), what)
        out = np.empty(dims, dtype="<f4")
        if self.handle.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
            raise DataError(f"{self.path}: truncated while reading {what}")
        if not np.isfinite(out).all():
            raise DataError(f"{self.path}: {what} holds a non-finite value")
        return out.astype(np.float32, copy=False)


def save_model(model: TextClassifier, path) -> None:
    """Write a float32 model to ``path``, replacing any file there whole.

    The artifact goes to a temporary file in the same directory that is
    renamed over ``path`` only once complete, so a failed save leaves
    the previous file as it was. Any other dtype raises ``ContractError``
    rather than being narrowed.
    """
    tensors = model.state_tensors()
    for name, tensor in tensors.items():
        if tensor.dtype != np.float32:
            raise ContractError(
                f"{path}: artifacts store float32, but tensor {name} is {tensor.dtype}"
            )
    header = {
        "version": FORMAT_VERSION,
        **run_entries(model.config, model.ablation),
        "vocab": model.vocab.token_to_index,
    }
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    partial = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as handle:
            handle.write(MAGIC)
            _write_u64(handle, len(header_bytes))
            handle.write(header_bytes)
            _write_u64(handle, len(tensors))
            for name, tensor in tensors.items():
                name_bytes = name.encode("utf-8")
                _write_u64(handle, len(name_bytes))
                handle.write(name_bytes)
                _write_u64(handle, tensor.ndim)
                for extent in tensor.shape:
                    _write_u64(handle, extent)
                handle.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)
        raise


def load_model(path) -> TextClassifier:
    with open(path, "rb") as handle:
        reader = _Reader(handle, path)
        magic = reader.read(4, "magic")
        if magic != MAGIC:
            raise DataError(f"{path}: not a model artifact (magic {magic!r})")
        header_len = reader.u64("header length")
        try:
            header = json.loads(reader.read(header_len, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: corrupt header: {exc}") from exc
        if not isinstance(header, dict):
            raise DataError(f"{path}: header is not a JSON object")
        if header.get("version") != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported artifact version {header.get('version')!r}")
        if "vocab" not in header:
            raise DataError(f"{path}: header missing 'vocab'")
        count = reader.u64("tensor count")
        arrays: dict[str, np.ndarray] = {}
        for index in range(count):
            raw_name = reader.read(reader.u64(f"name length of tensor {index}"),
                                   f"name of tensor {index}")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: corrupt name of tensor {index}: {exc}") from exc
            if name in arrays:
                raise DataError(f"{path}: tensor {name} has a second record")
            dims = reader.u64s(reader.u64(f"rank of tensor {name}"), f"dims of tensor {name}")
            arrays[name] = reader.float32s(dims, f"payload of tensor {name}")
        if reader.left:
            raise DataError(f"{path}: trailing bytes after tensor records")

    if "embedding" not in arrays:
        raise DataError(f"{path}: artifact has no embedding table")
    try:
        config, ablation = read_run_entries(header)
        vocab = Vocabulary(header["vocab"])
    except (ConfigError, DataError) as exc:
        raise DataError(f"{path}: bad header: {exc}") from exc
    table = EmbeddingTable(vectors=arrays["embedding"], dim=config.embed_dim)
    try:
        return TextClassifier(config, vocab, table, ablation, arrays=arrays)
    except (ConfigError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from exc
