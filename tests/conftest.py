from functools import reduce

import numpy as np
import pytest
from hypothesis import strategies as st

from bgcapsule import tensor as T
from bgcapsule.config import ModelConfig
from bgcapsule.errors import BgcError
from bgcapsule.model import TextClassifier
from bgcapsule.synthetic import separable_corpus
from bgcapsule.text import build_vocab, encode_docs, random_embeddings, tokenize_lower


def toy_config(**overrides) -> ModelConfig:
    """Small, fast configuration used across the test suite."""
    base = dict(
        max_len=16,
        embed_dim=8,
        bigru_sizes=[4, 3],
        caps_dim=4,
        routed_caps=3,
        routed_caps_dim=4,
        routing_iters=2,
        dense_hidden=16,
        class_count=2,
        dropout=0.25,
        batch_size=8,
        epochs=10,
        lr=1e-2,
        seed=0,
        embed_trainable=True,
    )
    base.update(overrides)
    return ModelConfig(**base)


def build_toy_model(docs, config=None, ablation=None, dtype=np.float32):
    config = config or toy_config()
    vocab = build_vocab(tokenize_lower(d.text) for d in docs)
    table = random_embeddings(vocab, config.embed_dim, config.seed)
    encoded = encode_docs(docs, vocab, config.max_len, config.truncate_keep)
    model = TextClassifier(config, vocab, table, ablation, dtype=dtype)
    return model, encoded


def randomize_gru_biases(model, seed):
    """Give every GRU bias normal values, as after training: from the zero
    init, a GRU reading padding from h = 0 stays at h = 0."""
    rng = np.random.default_rng(seed)
    for name, tensor in model.parameters().items():
        if name.startswith("bigru") and ".b_" in name:
            tensor.data = rng.normal(size=tensor.shape).astype(tensor.dtype)


@pytest.fixture
def separable_docs():
    return separable_corpus(200, seed=1)


@pytest.fixture
def toy_model(separable_docs):
    return build_toy_model(separable_docs)


def inner(a, b=None):
    """sum(a * b) as a taped [1, K] x [K, 1] ``matmul``: the scalar objective
    of the tests' backward passes. ``b`` defaults to ``a``; an array or a
    number is a constant broadcast to ``a``'s shape, so ``inner(a, 1)`` is
    sum(a)."""
    if b is None:
        b = a
    elif not isinstance(b, T.Tensor):
        b = T.Tensor(np.broadcast_to(b, a.shape).astype(a.dtype))
    assert b.shape == a.shape, f"inner of {a.shape} and {b.shape}"
    k = a.size
    return T.reshape(T.matmul(T.reshape(a, (1, k)), T.reshape(b, (k, 1))), ())


DEEP = b"[" * 100_000  # JSON nested past any interpreter's recursion limit


def _edit(blob: bytes, edit) -> bytes:
    kind, where, arg = edit
    at = int(where * len(blob))
    if kind == "flip" and blob:
        return blob[:at] + bytes([blob[at] ^ arg]) + blob[at + 1:]
    if kind == "insert":
        return blob[:at] + arg + blob[at:]
    if kind == "repeat":
        return blob[:at] + blob[at:at + 1] * arg + blob[at:]
    return blob[:at]  # cut


def mangled(blob: bytes):
    """Strategy: ``blob`` after one to four edits, each a flipped byte, an
    inserted quote, NUL, byte-order mark, newline, comma or deep nesting,
    a byte repeated into an overlong field (past the csv module's 131,072
    characters at most), or the end cut off."""
    where = st.floats(0, 1, exclude_max=True)
    inserts = [b'"', b"\0", b"\xef\xbb\xbf", b"\n", b",", DEEP]
    edit = st.one_of(st.tuples(st.just("flip"), where, st.integers(1, 255)),
                     st.tuples(st.just("insert"), where, st.sampled_from(inserts)),
                     st.tuples(st.just("repeat"), where, st.sampled_from([300, 140_000])),
                     st.tuples(st.just("cut"), where, st.none()))
    return st.lists(edit, min_size=1, max_size=4).map(lambda edits: reduce(_edit, edits, blob))


def loads_or_names(load, path):
    """``load()``'s result, or None if it raised a package error naming ``path``."""
    try:
        return load()
    except BgcError as exc:
        assert str(path) in str(exc), f"{type(exc).__name__} without the file: {exc}"
        return None
