import numpy as np
import numpy.testing as npt
import pytest

from bgcapsule import layers as L
from bgcapsule import tensor as T
from bgcapsule.config import VARIANTS, AblationConfig, ModelConfig
from bgcapsule.errors import ConfigError
from bgcapsule.model import TextClassifier
from bgcapsule.synthetic import separable_corpus
from bgcapsule.text import (LabeledText, batch_of, build_vocab, encode_docs, random_embeddings,
                            tokenize_lower)
from bgcapsule.training import softmax_cross_entropy

from conftest import build_toy_model, randomize_gru_biases, toy_config


def test_forward_shape_chain(separable_docs):
    model, encoded = build_toy_model(separable_docs)
    batch = batch_of(encoded[:2])
    assert batch.token_ids.shape == (2, 16)
    probs = model.forward(batch.token_ids)
    assert probs.shape == (2, 2)


def test_probability_rows_sum_to_one(separable_docs):
    model, encoded = build_toy_model(separable_docs)
    probs = model.forward(batch_of(encoded[:8]).token_ids).data
    npt.assert_allclose(probs.sum(axis=1), np.ones(8), atol=1e-6)
    assert np.all(probs >= 0)


def test_eval_mode_deterministic(separable_docs):
    model, encoded = build_toy_model(separable_docs)
    ids = batch_of(encoded[:4]).token_ids
    a = model.forward(ids).data
    b = model.forward(ids).data
    npt.assert_array_equal(a, b)


def test_same_seed_same_parameters(separable_docs):
    m1, _ = build_toy_model(separable_docs)
    m2, _ = build_toy_model(separable_docs)
    for (n1, p1), (n2, p2) in zip(m1.parameters().items(), m2.parameters().items()):
        assert n1 == n2
        npt.assert_array_equal(p1.data, p2.data)


def test_shared_stage_parameter_counts_match_across_variants(separable_docs):
    cfg = toy_config()
    bg, _ = build_toy_model(separable_docs, cfg, AblationConfig(variant="bgcapsule"))
    mp, _ = build_toy_model(separable_docs, cfg, AblationConfig(variant="bigru_maxpool"))
    for stage in ("embedding", "bigru1", "bigru2"):
        assert bg.parameter_count(stage) == mp.parameter_count(stage)
    assert bg.parameter_count("routing") > 0
    assert mp.parameter_count("routing") == 0


def test_cnn_capsule_uses_same_routing_params(separable_docs):
    cfg = toy_config()
    ab = AblationConfig(variant="cnn_capsule", cnn_filter_widths=[2, 3], cnn_filter_count=5)
    model, encoded = build_toy_model(separable_docs, cfg, ab)
    assert model.extractor.width == 10
    probs = model.forward(batch_of(encoded[:2]).token_ids)
    assert probs.shape == (2, 2)
    names = set(model.parameters())
    assert "routing.pair_w" in names and "primary_caps.w" in names


def test_unshared_pair_weights_shape(separable_docs):
    cfg = toy_config(share_pair_weights=False)
    model, _ = build_toy_model(separable_docs, cfg)
    assert model.parameters()["routing.pair_w"].shape == (cfg.routed_caps, cfg.max_len,
                                                          cfg.caps_dim, cfg.routed_caps_dim)


def test_routing_info_exposed(separable_docs):
    model, encoded = build_toy_model(separable_docs)
    model.forward(batch_of(encoded[:3]).token_ids)
    info = model.last_routing
    assert info is not None
    assert info.couplings.shape == (3, model.config.max_len, model.config.routed_caps)
    npt.assert_allclose(info.couplings.sum(axis=2), np.ones((3, model.config.max_len)),
                        atol=1e-5)


def test_softmax_axis_flag_changes_normalization(separable_docs):
    cfg = toy_config(softmax_axis="input_caps")
    model, encoded = build_toy_model(separable_docs, cfg)
    model.forward(batch_of(encoded[:2]).token_ids)
    sums = model.last_routing.couplings.sum(axis=1)
    npt.assert_allclose(sums, np.ones((2, cfg.routed_caps)), atol=1e-5)


@pytest.mark.parametrize("variant", VARIANTS)
def test_watched_frozen_embedding_gets_the_finite_difference_gradient(variant):
    # full-length docs: no padding row, whose gradient the embedding pins to zero
    docs = separable_corpus(4, seed=3, min_len=16, max_len=16)
    model, encoded = build_toy_model(docs, toy_config(embed_trainable=False, dropout=0.0),
                                     AblationConfig(variant=variant, cnn_filter_widths=[2, 3],
                                                    cnn_filter_count=3),
                                     dtype=np.float64)
    # at the default +-0.05 scale the double squash flattens activations
    # below the finite-difference step
    model.embedding.data *= 20.0
    batch = batch_of(encoded)
    report = T.grad_check(lambda _: softmax_cross_entropy(model.logits(batch.token_ids),
                                                          batch.labels),
                          model.embedding, tol=1e-3)
    assert report.passed, report.line()


def test_trainable_embedding_records_no_node_unless_watched(separable_docs):
    model, encoded = build_toy_model(separable_docs, toy_config(embed_trainable=True))
    batch = batch_of(encoded[:4])
    with T.Tape() as tape:
        model.logits(batch.token_ids)
    assert tape.nodes == []
    with T.Tape() as watched:
        watched.watch(model.embedding)
        watched.backward(softmax_cross_entropy(model.logits(batch.token_ids), batch.labels))
    assert any(t is model.embedding for node in watched.nodes for t in node.inputs)
    assert np.abs(watched.grad(model.embedding).data).max() > 0


def test_tape_watching_only_the_head_records_no_gru_and_keeps_its_gradients():
    # short docs: the batch shares a padding prefix that untaped GRUs scan once
    docs = separable_corpus(6, seed=4, min_len=3, max_len=8)
    model, encoded = build_toy_model(docs, toy_config(), dtype=np.float64)
    randomize_gru_biases(model, 4)
    batch = batch_of(encoded)
    assert not batch.token_ids[:, :8].any()
    params = model.parameters()
    head = [name for name in params if name.startswith("head.")]
    grads, grus = [], []
    for watched in (head, list(params)):
        with T.Tape() as tape:
            tape.watch(*(params[name] for name in watched))
            tape.backward(softmax_cross_entropy(model.logits(batch.token_ids), batch.labels))
        grads.append({name: tape.grad(params[name]).data for name in head})
        grus.append(sum(node.backward.__qualname__.startswith("run_gru.")
                        for node in tape.nodes))
    assert grus == [0, 4]
    for name in head:
        npt.assert_allclose(grads[0][name], grads[1][name], rtol=0, atol=1e-12)


def test_predict_text_all_oov(separable_docs):
    model, _ = build_toy_model(separable_docs)
    cls, probs = model.predict_text("qqq zzz unseen tokens only")
    assert cls in (0, 1)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)
    cls2, probs2 = model.predict_text("qqq zzz unseen tokens only")
    assert cls == cls2
    npt.assert_array_equal(probs, probs2)


def test_embedding_dim_mismatch_rejected(separable_docs):
    cfg = toy_config()
    vocab = build_vocab(tokenize_lower(d.text) for d in separable_docs)
    table = random_embeddings(vocab, dim=cfg.embed_dim + 1, seed=0)
    with pytest.raises(ConfigError):
        TextClassifier(cfg, vocab, table)


def test_pool_window_exceeding_max_len_rejected(separable_docs):
    cfg = toy_config(max_len=3)
    with pytest.raises(ConfigError):
        build_toy_model(separable_docs, cfg, AblationConfig(variant="bigru_maxpool",
                                                            pool_window=64))


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.5).validate()
    with pytest.raises(ConfigError):
        ModelConfig(epochs=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(head_activation="gelu").validate()
    with pytest.raises(ConfigError):
        ModelConfig(bigru_sizes=[5]).validate()
    with pytest.raises(ConfigError):
        AblationConfig(variant="other").validate()


MERGE_WORDS = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi".split()
MERGE_TEXTS = [
    " ".join(MERGE_WORDS),  # fills max_len 12: every position live
    "qqq zzz www",  # every token unknown: every position dead
    "beta",
    "gamma delta epsilon",
    "alpha qqq qqq qqq qqq qqq qqq beta gamma",  # dead positions inside the text too
    "eta theta iota kappa lambda mu nu",
]


def merge_model(axis, share=True):
    config = toy_config(max_len=12, primary_caps_per_pos=2, routing_iters=3, dropout=0.0,
                        softmax_axis=axis, share_pair_weights=share, embed_trainable=True)
    docs = [LabeledText(text, i % 2) for i, text in enumerate(MERGE_TEXTS)]
    vocab = build_vocab([MERGE_WORDS])
    table = random_embeddings(vocab, config.embed_dim, config.seed)
    table.vectors = table.vectors * 20.0  # a healthy scale for the double squash
    model = TextClassifier(config, vocab, table, AblationConfig(variant="cnn_capsule",
                                                                cnn_filter_count=4),
                           dtype=np.float64)
    # nonzero biases: at zero ones a dead position's ReLU would pass back no gradient
    rng = np.random.default_rng(5)
    for name, tensor in model.parameters().items():
        if name.endswith((".bias", ".b")):
            tensor.data = rng.normal(size=tensor.shape)
    return model, batch_of(encode_docs(docs, vocab, config.max_len, config.truncate_keep))


def routed(monkeypatch):
    """Record the weights of every ``dynamic_routing`` call and its input capsule count."""
    calls = []
    real = L.dynamic_routing

    def spy(u_hat, iterations, normalize_over="output_caps", weights=None):
        calls.append((u_hat.shape[2], weights))
        return real(u_hat, iterations, normalize_over, weights)

    monkeypatch.setattr(L, "dynamic_routing", spy)
    return calls


def probs_routing_grads(model, ids, labels, merge):
    """Probabilities, routing and parameter gradients of the model's path, or
    of the same stages with every position routed."""
    params = model.parameters()
    with T.Tape() as tape:
        tape.watch(*params.values())
        if merge:
            logits = model.logits(ids)
        else:
            features, _ = model.extractor.forward(L.embedding_forward(model.embedding, ids), None)
            logits = model.head.forward(model.aggregator.forward(features, None))
        tape.backward(softmax_cross_entropy(logits, labels))
        grads = {name: tape.grad(p).data for name, p in params.items()}
    return T.softmax(logits, axis=1).data, model.last_routing, grads


@pytest.mark.parametrize("axis", ["output_caps", "input_caps"])
def test_cnn_capsule_routes_dead_positions_once_with_the_same_result(axis, monkeypatch):
    model, batch = merge_model(axis)
    calls = routed(monkeypatch)
    t_caps = model.config.max_len * model.config.primary_caps_per_pos
    for docs in (slice(None), slice(1, None)):  # with and without the doc that fills max_len
        ids, labels = batch.token_ids[docs], batch.labels[docs]
        probs, routing, grads = probs_routing_grads(model, ids, labels, merge=True)
        merged_caps, weights = calls[-1]
        assert weights is not None and weights.max() > 1 and (weights == 0).any()
        want_probs, want_routing, want_grads = probs_routing_grads(model, ids, labels, merge=False)
        assert calls[-1] == (t_caps, None)
        npt.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        assert routing.logits.shape == want_routing.logits.shape == (len(ids), t_caps, 3)
        npt.assert_allclose(routing.logits, want_routing.logits, rtol=0, atol=1e-12)
        assert len(routing.coupling_history) == 3
        for got, want in zip(routing.coupling_history, want_routing.coupling_history):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)
        for name, want in want_grads.items():
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(grads[name] - want).max() <= 1e-12 * scale, name
    # without the full doc, fewer capsules are routed
    assert merged_caps < t_caps


def test_cnn_capsule_with_per_pair_weights_routes_every_position(monkeypatch):
    model, batch = merge_model("output_caps", share=False)
    calls = routed(monkeypatch)
    model.logits(batch.token_ids)
    assert calls == [(model.config.max_len * model.config.primary_caps_per_pos, None)]
