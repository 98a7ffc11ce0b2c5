"""Assembles the classifier from stages: embedding -> extractor -> aggregator -> head.

The extractor is the BiGRU ensemble or the CNN, the aggregator capsule
routing or max pooling. A variant is one ``(extractor, aggregator)``
entry in ``VARIANT_STAGES``; every other stage is the same code for all
variants, which is what makes the ablation comparison a fair one.

A stage is built from the config, the ablation knobs, its input width
and the model's ``param(name, shape)``, which hands it each tensor under
its artifact name: drawn in call order for a new model, or, given
``arrays`` (a loaded artifact's records), the record of that name, which
must have that shape; a record no stage asks for is an error. The model
keeps each tensor as handed out. A stage holds ``width`` and ``forward``.

An extractor's ``forward`` hands the aggregator its features and their
layout: [N,T,F] and None when every position may differ (the BiGRU
ensemble: a GRU state depends on everything before it), or, for the CNN,
whose dead positions all hold the same features, [N,K,F] over the
entries of a ``layers.DistinctPositions``, each document's dead
positions computed once as one entry. Capsule routing then projects,
votes and routes those entries as they are.
"""

from __future__ import annotations

import numpy as np

from . import layers as L
from . import tensor as T
from .config import AblationConfig, ModelConfig
from .errors import ConfigError, ContractError, DataError
from .tensor import Tensor
from .text import EmbeddingTable, Vocabulary, encode_ids


def recurrent_dropout_mask(shape, rate: float, rng) -> np.ndarray:
    """Bernoulli(1-rate)/(1-rate) mask; one draw per sequence per layer."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(shape) >= rate).astype(np.float32)
    return keep / np.float32(1.0 - rate)


class BiGruEnsemble:
    """Two BiGRUs over the same input, channel-concatenated [N,T,2*H1+2*H2]:
    bigru1 forward and backward, then bigru2 forward and backward.

    Given a ``dropout_rng`` and a nonzero dropout rate, each direction
    gets a recurrent-dropout mask drawn from it per batch.
    """

    def __init__(self, cfg: ModelConfig, ablation: AblationConfig, in_width: int, param):
        self.bigru1, self.bigru2 = [
            tuple(L.gru_params(param, f"bigru{i}_{direction}", in_width, h)
                  for direction in ("fwd", "bwd"))
            for i, h in enumerate(cfg.bigru_sizes, 1)]
        self.width = 2 * sum(cfg.bigru_sizes)
        self.dropout = cfg.dropout

    def forward(self, embedded: Tensor, dropout_rng) -> tuple[Tensor, None]:
        def mask(gru):
            if dropout_rng is None or self.dropout == 0.0:
                return None
            shape = (embedded.shape[0], gru.hidden_size)
            return recurrent_dropout_mask(shape, self.dropout, dropout_rng).astype(embedded.dtype)

        # the four scans read the same rows with text, found once; each call
        # gets the model's own GruParams as its second argument, by which
        # perfbench's tracer names the direction
        rows = L.text_rows(embedded.data)
        outputs = [L.run_gru(embedded, gru, reverse, mask(gru), rows)
                   for gru_pair in (self.bigru1, self.bigru2)
                   for gru, reverse in zip(gru_pair, (False, True))]
        return T.concat(outputs, axis=2), None


class CnnExtractor:
    """Same-padded convolutions of each filter width, ReLU, concatenated."""

    def __init__(self, cfg: ModelConfig, ablation: AblationConfig, in_width: int, param):
        widths, count = ablation.cnn_filter_widths, ablation.cnn_filter_count
        self.kernels, self.biases = [], []
        for i, w in enumerate(widths):
            self.kernels.append(param(f"cnn{i}.kernel", (w, in_width, count)))
            self.biases.append(param(f"cnn{i}.bias", (count,)))
        self.width = len(widths) * count

    def forward(self, embedded: Tensor, dropout_rng) -> tuple[Tensor, L.DistinctPositions]:
        return L.cnn_feature_extractor(embedded, self.kernels, self.biases)


class CapsuleRouting:
    """Primary capsules per position, votes, agreement routing, flattened.

    The vote weights [J, D, D'] are shared by every input capsule, so over
    the entries of a ``layers.DistinctPositions`` equal positions give
    equal capsules, votes and couplings: each entry is projected, voted and
    routed once, weighed by the count of positions it stands for.

    ``last_routing`` holds the couplings of the latest forward pass, over
    every position's capsules [N, T*P, J] either way.
    """

    last_routing: L.RoutingInfo | None = None

    def __init__(self, cfg: ModelConfig, ablation: AblationConfig, in_width: int, param):
        self.cfg = cfg
        caps_out = cfg.primary_caps_per_pos * cfg.caps_dim
        self.caps_w = param("primary_caps.w", (in_width, caps_out))
        self.caps_b = param("primary_caps.b", (caps_out,))
        self.pair_w = param("routing.pair_w", (cfg.routed_caps, cfg.caps_dim, cfg.routed_caps_dim))
        self.width = cfg.routed_caps * cfg.routed_caps_dim

    def forward(self, features: Tensor, distinct: L.DistinctPositions | None = None) -> Tensor:
        cfg = self.cfg
        per_pos = cfg.primary_caps_per_pos
        caps = L.primary_capsules(features, self.caps_w, self.caps_b, per_pos, cfg.caps_dim)
        counts = None if distinct is None else np.repeat(distinct.counts, per_pos, axis=1)
        v, routing = L.dynamic_routing(L.predict_vectors(caps, self.pair_w), cfg.routing_iters,
                                       counts)
        self.last_routing = routing if distinct is None else distinct.expand(routing, per_pos)
        return T.reshape(v, (v.shape[0], -1))


class MaxPooling:
    """Max over non-overlapping position windows, flattened; no parameters."""

    last_routing = None

    def __init__(self, cfg: ModelConfig, ablation: AblationConfig, in_width: int, param):
        self.window = ablation.pool_window
        if cfg.max_len < self.window:
            raise ConfigError(f"pool window {self.window} exceeds max_len {cfg.max_len}")
        self.width = cfg.max_len // self.window * in_width

    def forward(self, features: Tensor, distinct: L.DistinctPositions | None = None) -> Tensor:
        pooled = L.max_pool_routing(features, self.window)
        return T.reshape(pooled, (pooled.shape[0], -1))


class DenseHead:
    """ReLU hidden layer and a linear layer to class logits."""

    def __init__(self, cfg: ModelConfig, ablation: AblationConfig, in_width: int, param):
        self.weights = L.head_params(param, in_width, cfg.dense_hidden, cfg.class_count)

    def forward(self, flat: Tensor) -> Tensor:
        return L.dense_head(flat, self.weights)


VARIANT_STAGES = {
    "bgcapsule": (BiGruEnsemble, CapsuleRouting),
    "bigru_maxpool": (BiGruEnsemble, MaxPooling),
    "cnn_capsule": (CnnExtractor, CapsuleRouting),
}


class TextClassifier:
    """One trainable model instance: vocab, stages, and forward pass."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, embeddings: EmbeddingTable,
                 ablation: AblationConfig | None = None, dtype=np.float32,
                 arrays: dict[str, np.ndarray] | None = None):
        config.validate()
        self.config = config
        self.ablation = (ablation or AblationConfig()).validate()
        self.vocab = vocab
        self.dtype = np.dtype(dtype)
        if embeddings.vectors.shape != (len(vocab) + 1, config.embed_dim):
            raise ConfigError(f"embedding table has shape {embeddings.vectors.shape} for embed_dim "
                              f"{config.embed_dim} and a {len(vocab)}-token vocabulary")
        self.embedding = Tensor(embeddings.vectors.astype(self.dtype, copy=False))
        self._tensors = {"embedding": self.embedding}
        draw = arrays is None and L.drawing(np.random.default_rng([config.seed, 0]), self.dtype)

        def param(name, shape):
            if draw:
                tensor = draw(name, shape)
            elif name not in arrays:
                raise DataError(f"tensor {name} is missing")
            elif arrays[name].shape != shape:
                raise DataError(f"tensor {name} has shape {arrays[name].shape}, expected {shape}")
            else:
                tensor = Tensor(arrays[name].astype(self.dtype, copy=False))
            self._tensors[name] = tensor
            return tensor

        extractor, aggregator = VARIANT_STAGES[self.ablation.variant]
        self.extractor = extractor(config, self.ablation, config.embed_dim, param)
        self.aggregator = aggregator(config, self.ablation, self.extractor.width, param)
        self.head = DenseHead(config, self.ablation, self.aggregator.width, param)
        extra = sorted(set(arrays or ()) - set(self._tensors))
        if extra:
            raise DataError(f"tensor records {extra} belong to no stage")

    @property
    def last_routing(self) -> L.RoutingInfo | None:
        """Routing couplings of the latest forward pass; None without capsules."""
        return self.aggregator.last_routing

    # -- parameter access ---------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """Trainable tensors in a fixed, deterministic order."""
        trainable = self.config.embed_trainable
        return {name: t for name, t in self._tensors.items() if trainable or name != "embedding"}

    def state_tensors(self) -> dict[str, Tensor]:
        """Everything persisted in a model artifact (embedding always)."""
        return dict(self._tensors)

    def parameter_count(self, prefix: str = "") -> int:
        return sum(t.size for name, t in self.parameters().items() if name.startswith(prefix))

    # -- forward ------------------------------------------------------

    def logits(self, token_ids: np.ndarray, dropout_rng=None) -> Tensor:
        """Token ids [N, max_len] -> class logits [N, C], through every stage.

        Recurrent dropout is drawn from ``dropout_rng`` when given (training).
        The embedding gets a gradient only if the tape watches it."""
        embedded = L.embedding_forward(self.embedding, np.asarray(token_ids))
        features, distinct = self.extractor.forward(embedded, dropout_rng)
        return self.head.forward(self.aggregator.forward(features, distinct))

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Token ids [N, max_len] -> class probabilities [N, C], in eval mode."""
        return T.softmax(self.logits(token_ids), axis=1)

    # -- single-text inference ----------------------------------------

    def encode_text(self, text: str) -> np.ndarray:
        ids = encode_ids(text, self.vocab, self.config.max_len, self.config.truncate_keep)
        return np.array([ids], dtype=np.int32)

    def predict_text(self, text: str) -> tuple[int, np.ndarray]:
        """Class index and the full probability vector for one document."""
        probs = self.forward(self.encode_text(text)).data[0]
        return int(probs.argmax()), probs
