import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from bgcapsule import artifact
from bgcapsule.artifact import load_model, save_model
from bgcapsule.errors import ContractError, DataError

from conftest import build_toy_model


@pytest.fixture
def saved(tmp_path, separable_docs):
    model, encoded = build_toy_model(separable_docs)
    path = tmp_path / "model.bgc"
    save_model(model, path)
    ids = np.array([d.tokens for d in encoded[:8]], dtype=np.int32)
    return model, path, ids


def record_offsets(blob: bytes):
    """(name, offset of its first dim, offset of its payload) per tensor record."""
    (header_len,) = struct.unpack_from("<Q", blob, 4)
    pos = 12 + header_len
    (count,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    records = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<Q", blob, pos)
        name = blob[pos + 8:pos + 8 + name_len].decode("utf-8")
        pos += 8 + name_len
        (rank,) = struct.unpack_from("<Q", blob, pos)
        dims = struct.unpack_from(f"<{rank}Q", blob, pos + 8)
        records.append((name, pos + 8, pos + 8 + 8 * rank))
        pos += 8 + 8 * rank + 4 * int(np.prod(dims))
    assert pos == len(blob)
    return records


def names(path, tensor):
    """Pattern for an error message that names the file and the tensor."""
    return f"{re.escape(str(path))}.*payload of tensor {re.escape(tensor)}"


def test_round_trip_is_bitwise(saved, tmp_path):
    model, path, ids = saved
    loaded = load_model(path)
    for name, tensor in model.state_tensors().items():
        stored = loaded.state_tensors()[name].data
        assert stored.dtype == np.float32
        npt.assert_array_equal(stored, tensor.data, err_msg=name)
    npt.assert_array_equal(loaded.forward(ids).data, model.forward(ids).data)
    again = tmp_path / "again.bgc"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_corrupt_dims_raise_data_error_naming_file_and_tensor(saved):
    _, path, _ = saved
    blob = bytearray(path.read_bytes())
    name, dim_offset, _ = record_offsets(bytes(blob))[1]
    struct.pack_into("<Q", blob, dim_offset, 2 ** 40)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=names(path, name)):
        load_model(path)


def test_corrupt_header_length_raises_data_error(saved):
    _, path, _ = saved
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, 4, 2 ** 40)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="header"):
        load_model(path)


def test_truncated_payload_raises_data_error_naming_tensor(saved):
    _, path, _ = saved
    blob = path.read_bytes()
    name, _, payload_offset = record_offsets(blob)[-1]
    path.write_bytes(blob[:payload_offset + 6])
    with pytest.raises(DataError, match=names(path, name)):
        load_model(path)


def test_every_truncation_raises_data_error(saved):
    _, path, _ = saved
    blob = path.read_bytes()
    cuts = sorted({0, 3, 4, 11, 12, 40, *(o for _, d, p in record_offsets(blob) for o in (d, p + 1))})
    for cut in cuts:
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_model(path)


def test_trailing_bytes_rejected(saved):
    _, path, _ = saved
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DataError, match="trailing"):
        load_model(path)


def test_failed_save_leaves_previous_artifact_byte_identical(saved, monkeypatch):
    model, path, _ = saved
    before = path.read_bytes()
    writes = []
    real_write = artifact._write_u64

    def failing_write(handle, value):
        writes.append(value)
        if len(writes) == 10:
            raise OSError("disk full")
        real_write(handle, value)

    monkeypatch.setattr(artifact, "_write_u64", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_model(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_save_refuses_a_model_that_is_not_float32(separable_docs, tmp_path):
    model, _ = build_toy_model(separable_docs, dtype=np.float64)
    path = tmp_path / "wide.bgc"
    with pytest.raises(ContractError, match="float64"):
        save_model(model, path)
    assert not path.exists()
