import numpy as np
import pytest

from bgcapsule import tensor as T
from bgcapsule.config import AblationConfig, ModelConfig
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
    """sum(a * b) as one taped ``einsum2``: the scalar objective of the
    tests' backward passes. ``b`` defaults to ``a``; an array or a number
    is a constant broadcast to ``a``'s shape, so ``inner(a, 1)`` is sum(a)."""
    if b is None:
        b = a
    elif not isinstance(b, T.Tensor):
        b = T.Tensor(np.broadcast_to(b, a.shape).astype(a.dtype))
    spec = "abcdefgh"[:a.ndim]
    return T.einsum2(f"{spec},{spec}->", a, b)
