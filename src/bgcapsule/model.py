"""Assembles the classifier variants from the layer building blocks.

All three variants share the embedding stage and the dense head; the
capsule/routing path is literally the same code for the bgcapsule and
cnn_capsule variants, which is what makes the ablation comparison an
apples-to-apples one.
"""

from __future__ import annotations

import numpy as np

from . import layers as L
from . import tensor as T
from .config import AblationConfig, ModelConfig
from .errors import ConfigError
from .tensor import Tensor
from .text import EmbeddingTable, Vocabulary, pad_prepend, tokenize_lower
from .training import recurrent_dropout_mask


class TextClassifier:
    """One trainable model instance: parameters, vocab, and forward pass."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, embeddings: EmbeddingTable,
                 ablation: AblationConfig | None = None, dtype=np.float32):
        config.validate()
        self.config = config
        self.ablation = (ablation or AblationConfig()).validate()
        self.vocab = vocab
        self.dtype = np.dtype(dtype)
        if embeddings.dim != config.embed_dim:
            raise ConfigError(
                f"embedding table is {embeddings.dim}-d but config.embed_dim is {config.embed_dim}"
            )
        if embeddings.vectors.shape[0] != len(vocab) + 1:
            raise ConfigError(
                f"embedding table has {embeddings.vectors.shape[0]} rows for a "
                f"{len(vocab)}-token vocabulary"
            )
        self.embedding = Tensor(embeddings.vectors.astype(self.dtype, copy=False))
        self.last_routing: L.RoutingInfo | None = None
        self._build(np.random.default_rng([config.seed, 0]))

    # -- construction -------------------------------------------------

    def _build(self, rng) -> None:
        cfg, dtype = self.config, self.dtype
        variant = self.ablation.variant

        if variant in ("bgcapsule", "bigru_maxpool"):
            h1, h2 = cfg.bigru_sizes
            self.bigru1 = (L.init_gru(rng, cfg.embed_dim, h1, dtype),
                           L.init_gru(rng, cfg.embed_dim, h1, dtype))
            self.bigru2 = (L.init_gru(rng, cfg.embed_dim, h2, dtype),
                           L.init_gru(rng, cfg.embed_dim, h2, dtype))
            feature_width = 2 * h1 + 2 * h2
        else:
            widths = self.ablation.cnn_filter_widths
            count = self.ablation.cnn_filter_count
            self.cnn_kernels = [
                L.glorot_uniform(rng, (w, cfg.embed_dim, count), dtype) for w in widths
            ]
            self.cnn_biases = [T.zeros((count,), dtype) for _ in widths]
            feature_width = len(widths) * count
        self.feature_width = feature_width

        if variant == "bigru_maxpool":
            blocks = cfg.max_len // self.ablation.pool_window
            if blocks < 1:
                raise ConfigError(
                    f"pool window {self.ablation.pool_window} exceeds max_len {cfg.max_len}"
                )
            head_in = blocks * feature_width
        else:
            caps_out = cfg.primary_caps_per_pos * cfg.caps_dim
            self.caps_w = L.glorot_uniform(rng, (feature_width, caps_out), dtype)
            self.caps_b = T.zeros((caps_out,), dtype)
            input_caps = cfg.max_len * cfg.primary_caps_per_pos
            if cfg.share_pair_weights:
                pair_shape = (cfg.routed_caps, cfg.caps_dim, cfg.routed_caps_dim)
            else:
                pair_shape = (cfg.routed_caps, input_caps, cfg.caps_dim, cfg.routed_caps_dim)
            self.pair_w = L.glorot_uniform(rng, pair_shape, dtype)
            head_in = cfg.routed_caps * cfg.routed_caps_dim
        self.head = L.init_head(rng, head_in, cfg.dense_hidden, cfg.class_count, dtype)

    # -- parameter access ---------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """Trainable tensors in a fixed, deterministic order."""
        params: dict[str, Tensor] = {}
        if self.config.embed_trainable:
            params["embedding"] = self.embedding
        variant = self.ablation.variant
        if variant in ("bgcapsule", "bigru_maxpool"):
            for tag, pair in (("bigru1", self.bigru1), ("bigru2", self.bigru2)):
                for direction, gru in zip(("fwd", "bwd"), pair):
                    params.update(gru.named(f"{tag}_{direction}"))
        else:
            for i, (kernel, bias) in enumerate(zip(self.cnn_kernels, self.cnn_biases)):
                params[f"cnn{i}.kernel"] = kernel
                params[f"cnn{i}.bias"] = bias
        if variant != "bigru_maxpool":
            params["primary_caps.w"] = self.caps_w
            params["primary_caps.b"] = self.caps_b
            params["routing.pair_w"] = self.pair_w
        params.update(self.head.named("head"))
        return params

    def state_tensors(self) -> dict[str, Tensor]:
        """Everything persisted in a model artifact (embedding always)."""
        state = {"embedding": self.embedding}
        state.update(self.parameters())
        return state

    def parameter_count(self, prefix: str = "") -> int:
        return sum(t.size for name, t in self.parameters().items() if name.startswith(prefix))

    # -- forward ------------------------------------------------------

    def _dropout_masks(self, batch_size: int, training: bool, rng):
        cfg = self.config
        if not training or cfg.dropout == 0.0 or rng is None:
            return ((None, None), (None, None))
        h1, h2 = cfg.bigru_sizes

        def mask(hidden):
            return Tensor(recurrent_dropout_mask((batch_size, hidden), cfg.dropout, rng)
                          .astype(self.dtype))

        return ((mask(h1), mask(h1)), (mask(h2), mask(h2)))

    def forward(self, token_ids: np.ndarray, training: bool = False, rng=None) -> Tensor:
        """Token ids [N, max_len] -> class probabilities [N, C]."""
        cfg = self.config
        ids = np.asarray(token_ids)
        embedded = L.embedding_forward(self.embedding, ids, trainable=cfg.embed_trainable)
        variant = self.ablation.variant

        if variant in ("bgcapsule", "bigru_maxpool"):
            masks = self._dropout_masks(ids.shape[0], training, rng)
            features = L.ensemble_forward(embedded, self.bigru1, self.bigru2, masks)
        else:
            features = L.cnn_feature_extractor(embedded, self.cnn_kernels, self.cnn_biases)

        if variant == "bigru_maxpool":
            pooled = L.max_pool_routing(features, self.ablation.pool_window)
            n, blocks, width = pooled.shape
            flat = T.reshape(pooled, (n, blocks * width))
        else:
            caps = L.primary_capsules(features, self.caps_w, self.caps_b,
                                      cfg.primary_caps_per_pos, cfg.caps_dim)
            u_hat = L.predict_vectors(caps, self.pair_w)
            v, self.last_routing = L.dynamic_routing(u_hat, cfg.routing_iters,
                                                     normalize_over=cfg.softmax_axis)
            flat = L.flatten_capsules(v)
        return L.dense_head(flat, self.head, cfg.head_activation)

    # -- single-text inference ----------------------------------------

    def encode_text(self, text: str) -> np.ndarray:
        ids = [self.vocab.lookup(token) for token in tokenize_lower(text)]
        padded = pad_prepend(ids, self.config.max_len, self.config.truncate_keep)
        return np.array([padded], dtype=np.int32)

    def predict_text(self, text: str) -> tuple[int, np.ndarray]:
        """Class index and the full probability vector for one document."""
        probs = self.forward(self.encode_text(text)).data[0]
        return int(probs.argmax()), probs
