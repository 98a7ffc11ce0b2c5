import json
import re
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgcapsule import artifact, layers
from bgcapsule.artifact import load_model, save_model
from bgcapsule.config import save_config_file
from bgcapsule.errors import ContractError, DataError
from bgcapsule.synthetic import separable_corpus

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
    original = path.read_bytes()
    name, dim_offset, _ = record_offsets(original)[1]
    # a zero extent makes the element count 0 whatever the other extents are
    for dims in [(2 ** 40,), (0, 2 ** 62)]:
        blob = bytearray(original)
        struct.pack_into(f"<{len(dims)}Q", blob, dim_offset, *dims)
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


def rewrite_header(path, mutate):
    """Apply ``mutate`` to the artifact's JSON header and write it back in place."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 4)
    header = json.loads(blob[12:12 + header_len])
    mutate(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:4] + struct.pack("<Q", len(new)) + new + blob[12 + header_len:])


def first_tokens(header, count):
    return list(header["vocab"])[:count]


def set_first_index(value):
    def mutate(header):
        header["vocab"][first_tokens(header, 1)[0]] = value
    return mutate


def duplicate_index(header):
    a, b = first_tokens(header, 2)
    header["vocab"][b] = header["vocab"][a]


HEADER_MUTATIONS = {
    "max_len_as_string": lambda h: h["config"].update(max_len="16"),
    "max_len_as_bool": lambda h: h["config"].update(max_len=True),
    "lr_not_finite": lambda h: h["config"].update(lr=float("nan")),
    "seed_negative": lambda h: h["config"].update(seed=-1),
    "filter_widths_as_int": lambda h: h["ablation"].update(cnn_filter_widths=3),
    "unknown_variant": lambda h: h["ablation"].update(variant="transformer"),
    "selu_head": lambda h: h["config"].update(head_activation="selu"),
    "softmax_over_inputs": lambda h: h["config"].update(softmax_axis="input_caps"),
    "config_as_list": lambda h: h.update(config=[1, 2]),
    "ablation_missing": lambda h: h.pop("ablation"),
    "vocab_as_list": lambda h: h.update(vocab=list(h["vocab"])),
    "vocab_index_as_string": set_first_index("1"),
    "vocab_index_too_large": set_first_index(10 ** 9),
    "vocab_index_zero": set_first_index(0),
    "vocab_index_duplicate": duplicate_index,
}


@pytest.mark.parametrize("mutation", sorted(HEADER_MUTATIONS))
def test_bad_header_value_raises_data_error_naming_file(saved, mutation):
    _, path, _ = saved
    rewrite_header(path, HEADER_MUTATIONS[mutation])
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_model(path)


def test_config_file_holds_the_config_entries_of_the_header(saved, tmp_path):
    model, path, _ = saved
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 4)
    header = json.loads(blob[12:12 + header_len])
    config_path = tmp_path / "run.json"
    save_config_file(model.config, model.ablation, config_path)
    assert json.loads(config_path.read_text(encoding="utf-8")) == {
        "config": header["config"], "ablation": header["ablation"]}


def test_header_with_the_old_shared_weights_key_loads_the_same_model(saved):
    _, path, ids = saved
    want = load_model(path)
    rewrite_header(path, lambda h: h["config"].update(share_pair_weights=True))
    loaded = load_model(path)
    assert loaded.config == want.config
    assert loaded.forward(ids).data.tobytes() == want.forward(ids).data.tobytes()
    text = "alpha beta unknown gamma"
    assert loaded.predict_text(text)[1].tobytes() == want.predict_text(text)[1].tobytes()


def test_header_asking_for_per_pair_weights_raises_data_error_naming_file(saved):
    _, path, _ = saved
    rewrite_header(path, lambda h: h["config"].update(share_pair_weights=False))
    with pytest.raises(DataError, match=re.escape(f"{path}: bad header: ModelConfig."
                                                  "share_pair_weights must be true")):
        load_model(path)


def test_header_that_is_not_an_object_raises_data_error(saved):
    _, path, _ = saved
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 4)
    new = b"[1, 2]"
    path.write_bytes(blob[:4] + struct.pack("<Q", len(new)) + new + blob[12 + header_len:])
    with pytest.raises(DataError, match=re.escape(str(path)) + ".*not a JSON object"):
        load_model(path)


def test_non_finite_payload_raises_data_error_naming_tensor(saved):
    _, path, _ = saved
    blob = bytearray(path.read_bytes())
    name, _, payload_offset = record_offsets(bytes(blob))[2]
    struct.pack_into("<f", blob, payload_offset + 4, float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=names(path, name) + " holds a non-finite value"):
        load_model(path)


def test_header_cannot_size_the_load_beyond_the_file(saved):
    _, path, _ = saved
    rewrite_header(path, lambda h: h["config"].update(routed_caps=10 ** 6))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(DataError) as raised:
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * size + 2 ** 20
    message = str(raised.value)
    assert message.startswith(f"{path}: tensor routing.pair_w has shape")
    assert "bad header" not in message


def test_load_draws_no_random_tensor(saved, monkeypatch):
    model, path, ids = saved

    def no_draw(*args, **kwargs):
        raise AssertionError("loading drew a random tensor")

    monkeypatch.setattr(layers, "glorot_uniform", no_draw)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    loaded = load_model(path)
    assert list(loaded.state_tensors()) == list(model.state_tensors())
    npt.assert_array_equal(loaded.forward(ids).data, model.forward(ids).data)


def rename_last_record(blob):
    name, dim_offset, _ = record_offsets(blob)[-1]
    name_offset = dim_offset - 8 - len(name)
    return blob[:name_offset] + b"x" + blob[name_offset + 1:], name, "is missing"


def with_vector_record(blob, name: bytes, values):
    """``blob`` with one more rank-1 record at the end, and the count raised."""
    (header_len,) = struct.unpack_from("<Q", blob, 4)
    pos = 12 + header_len
    (count,) = struct.unpack_from("<Q", blob, pos)
    extra = (struct.pack("<Q", len(name)) + name + struct.pack("<QQ", 1, len(values))
             + np.asarray(values, dtype="<f4").tobytes())
    return blob[:pos] + struct.pack("<Q", count + 1) + blob[pos + 8:] + extra


def append_record(blob):
    return with_vector_record(blob, b"stray", [0.0, 0.0]), "['stray']", "belong to no stage"


def repeat_record(blob):
    # without the check the later payload would silently win
    return with_vector_record(blob, b"head.b2", [5.0, -5.0]), "head.b2", "second record"


@pytest.mark.parametrize("mutate", [rename_last_record, append_record, repeat_record])
def test_missing_or_left_over_record_raises_data_error_naming_it(saved, mutate):
    _, path, _ = saved
    blob, tensor, problem = mutate(path.read_bytes())
    path.write_bytes(blob)
    with pytest.raises(DataError, match=f"{re.escape(str(path))}.*{re.escape(tensor)}.*{problem}"):
        load_model(path)


@pytest.fixture(scope="module")
def toy_artifact(tmp_path_factory):
    model, _ = build_toy_model(separable_corpus(200, seed=1))
    path = tmp_path_factory.mktemp("fuzz") / "model.bgc"
    save_model(model, path)
    return path, path.read_bytes()


flips = st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
                 min_size=1, max_size=4)


@settings(max_examples=800, deadline=None)
@given(data=st.one_of(flips, st.floats(0, 1, exclude_max=True)))
def test_mangled_artifact_loads_or_raises_data_error(toy_artifact, data):
    """Flipped header or record bytes, or a truncation, never escape as another error."""
    path, blob = toy_artifact
    if isinstance(data, float):
        mangled = blob[:int(data * len(blob))]
    else:
        mangled = bytearray(blob)
        for where, mask in data:
            mangled[int(where * len(blob))] ^= mask
    path.write_bytes(bytes(mangled))
    try:
        load_model(path)
    except DataError:
        pass
