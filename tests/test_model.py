import numpy as np
import numpy.testing as npt
import pytest

from bgcapsule import layers as L
from bgcapsule import tensor as T
from bgcapsule.artifact import load_model, save_model
from bgcapsule.config import VARIANTS, AblationConfig, ModelConfig
from bgcapsule.errors import ConfigError
from bgcapsule.model import TextClassifier
from bgcapsule.synthetic import separable_corpus
from bgcapsule.text import (EmbeddingTable, LabeledText, batch_of, build_vocab, encode_docs,
                            random_embeddings, tokenize_lower)
from bgcapsule.training import softmax_cross_entropy

from conftest import build_toy_model, randomize_gru_biases, toy_config
from oracles import conv_taped, grad_check


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


def test_routing_info_exposed(separable_docs):
    model, encoded = build_toy_model(separable_docs)
    model.forward(batch_of(encoded[:3]).token_ids)
    info = model.last_routing
    assert info is not None
    assert info.coupling_history[-1].shape == (3, model.config.max_len, model.config.routed_caps)
    npt.assert_allclose(info.coupling_history[-1].sum(axis=2), np.ones((3, model.config.max_len)),
                        atol=1e-5)


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
    report = grad_check(lambda _: softmax_cross_entropy(model.logits(batch.token_ids),
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
    for field, value in (("head_activation", "selu"), ("softmax_axis", "input_caps")):
        with pytest.raises(ConfigError, match=f"ModelConfig.{field} must be"):
            ModelConfig.from_dict({field: value})
    with pytest.raises(ConfigError):
        ModelConfig(bigru_sizes=[5]).validate()
    with pytest.raises(ConfigError, match="seed"):
        ModelConfig(seed=-1).validate()
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


def merge_model(filters=4):
    config = toy_config(max_len=12, primary_caps_per_pos=2, routing_iters=3, dropout=0.0,
                        embed_trainable=True)
    docs = [LabeledText(text, i % 2) for i, text in enumerate(MERGE_TEXTS)]
    vocab = build_vocab([MERGE_WORDS])
    table = random_embeddings(vocab, config.embed_dim, config.seed)
    table.vectors = table.vectors * 20.0  # a healthy scale for the double squash
    model = TextClassifier(config, vocab, table, AblationConfig(variant="cnn_capsule",
                                                                cnn_filter_count=filters),
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

    def spy(u_hat, iterations, weights=None):
        calls.append((u_hat.shape[2], weights))
        return real(u_hat, iterations, weights)

    monkeypatch.setattr(L, "dynamic_routing", spy)
    return calls


def probs_routing_grads(model, ids, labels, merge):
    """Probabilities, routing and parameter gradients of the model's path, or
    of the same stages with features computed and routed at every position:
    each width's ``conv_taped``, ReLU and concat, then capsules of every
    position (no ``DistinctPositions``)."""
    params = model.parameters()
    with T.Tape() as tape:
        tape.watch(*params.values())
        if merge:
            logits = model.logits(ids)
        else:
            embedded = L.embedding_forward(model.embedding, ids)
            cnn = model.extractor
            features = T.concat([T.relu(conv_taped(embedded, k, b))
                                 for k, b in zip(cnn.kernels, cnn.biases)], axis=2)
            logits = model.head.forward(model.aggregator.forward(features, None))
        tape.backward(softmax_cross_entropy(logits, labels))
        grads = {name: tape.grad(p).data for name, p in params.items()}
    return T.softmax(logits, axis=1).data, model.last_routing, grads


def assert_matches_every_position(model, ids, labels):
    """The model's path against the every-position reference, to 1e-12."""
    t_caps = model.config.max_len * model.config.primary_caps_per_pos
    probs, routing, grads = probs_routing_grads(model, ids, labels, merge=True)
    want_probs, want_routing, want_grads = probs_routing_grads(model, ids, labels, merge=False)
    npt.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
    assert routing.logits.shape == want_routing.logits.shape == (len(ids), t_caps, 3)
    npt.assert_allclose(routing.logits, want_routing.logits, rtol=0, atol=1e-12)
    assert len(routing.coupling_history) == 3
    for got, want in zip(routing.coupling_history, want_routing.coupling_history):
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)
    for name, want in want_grads.items():
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(grads[name] - want).max() <= 1e-12 * scale, name


def test_cnn_capsule_routes_dead_positions_once_with_the_same_result(monkeypatch):
    model, batch = merge_model()
    calls = routed(monkeypatch)
    t_caps = model.config.max_len * model.config.primary_caps_per_pos
    for docs in (slice(None), slice(1, None)):  # with and without the doc that fills max_len
        ids, labels = batch.token_ids[docs], batch.labels[docs]
        assert_matches_every_position(model, ids, labels)
        (merged_caps, weights), reference = calls[-2:]
        assert weights is not None and weights.max() > 1 and (weights == 0).any()
        assert reference == (t_caps, None)
    # without the full doc, fewer capsules are routed
    assert merged_caps < t_caps


def test_cnn_capsule_step_records_no_every_position_features():
    # the CNN computes, stores and back-propagates its features at each
    # document's distinct positions only: no tape node holds T rows of all
    # channels, or of one width's
    model, batch = merge_model(filters=5)  # a count no other extent has
    ids, labels = batch.token_ids[1:], batch.labels[1:]  # no doc fills max_len
    t_len, channels = model.config.max_len, (5, model.extractor.width)
    with T.Tape() as tape:
        tape.watch(*model.parameters().values())
        tape.backward(softmax_cross_entropy(model.logits(ids), labels))
    shapes = [node.output.shape for node in tape.nodes]
    features = [s for s in shapes if len(s) == 3 and s[2] in channels]
    assert features and all(s[1] < t_len for s in features)


def test_bgcapsule_step_keeps_the_gru_states_and_features_without_copies(separable_docs):
    # each run_gru output is a transposed view of its scan's [T+1,N,H] state
    # buffer, which the backward keeps anyway, and concat writes the ensemble's
    # features C-contiguous, so primary_capsules' row-major reshape is a view
    model, encoded = build_toy_model(separable_docs)
    batch = batch_of(encoded[:8])
    with T.Tape() as tape:
        tape.watch(*model.parameters().values())
        loss = softmax_cross_entropy(model.logits(batch.token_ids, np.random.default_rng(0)),
                                     batch.labels)
        tape.backward(loss)

    def nodes_of(op):
        return [node for node in tape.nodes if node.backward.__qualname__.startswith(op + ".")]

    grus = nodes_of("run_gru")
    assert len(grus) == 4
    for node in grus:
        states = node.output.data.base
        assert states is not None and states.shape[0] == model.config.max_len + 1
    (caps,) = nodes_of("primary_capsules")
    features = caps.inputs[0].data
    assert features.shape == (8, model.config.max_len, model.extractor.width)
    assert features.flags.c_contiguous


def gru_directions(model):
    return [*model.extractor.bigru1, *model.extractor.bigru2]


def assert_gru_weights_view_one_pack_per_direction(model):
    for gru in gru_directions(model):
        hid, weights = gru.hidden_size, (gru.w_z, gru.w_r, gru.w_h)
        assert gru.pack.shape == (hid + model.config.embed_dim, 3 * hid)
        for k, w in enumerate(weights):
            assert w.data.base is gru.pack
            npt.assert_array_equal(w.data, gru.pack[:, k * hid:(k + 1) * hid])
        assert not any(np.shares_memory(a.data, b.data)
                       for a, b in zip(weights, weights[1:] + weights[:1]))


def test_gru_weights_are_column_views_of_one_pack_after_a_build_and_a_load(tmp_path):
    # the pack is built by the first forward, so a build or a load copies no weight
    model, encoded = build_toy_model(separable_corpus(20, seed=3))
    ids = batch_of(encoded[:2]).token_ids
    save_model(model, tmp_path / "model.bgc")
    for built in (model, load_model(tmp_path / "model.bgc")):
        assert all(gru.pack is None for gru in gru_directions(built))
        built.forward(ids)
        assert_gru_weights_view_one_pack_per_direction(built)


def test_forwards_on_unchanged_weights_repack_nothing():
    model, encoded = build_toy_model(separable_corpus(20, seed=3))
    batch = batch_of(encoded[:8])
    model.forward(batch.token_ids)
    arrays = {name: t.data for name, t in model.state_tensors().items()}
    packs = [gru.pack for gru in gru_directions(model)]
    model.forward(batch.token_ids)
    with T.Tape() as tape:
        tape.watch(*model.parameters().values())
        tape.backward(softmax_cross_entropy(model.logits(batch.token_ids), batch.labels))
    assert all(t.data is arrays[name] for name, t in model.state_tensors().items())
    assert all(gru.pack is pack for gru, pack in zip(gru_directions(model), packs))


def rebind_w_r(model):
    gru = model.extractor.bigru1[0]
    rng = np.random.default_rng(6)
    gru.w_r.data = rng.normal(scale=0.5, size=gru.w_r.shape).astype(gru.w_r.dtype)


def shift_x_row_in_place(model):
    gru = model.extractor.bigru1[0]
    gru.w_z.data[gru.hidden_size] += 0.25


def forward_outputs(model, encoded):
    """Untaped probabilities and taped logits and gradients at N=1 and N=8."""
    params = model.parameters()
    out = []
    for batch in (batch_of(encoded[:1]), batch_of(encoded[:8])):
        out.append(model.forward(batch.token_ids).data)
        with T.Tape() as tape:
            tape.watch(*params.values())
            logits = model.logits(batch.token_ids)
            tape.backward(softmax_cross_entropy(logits, batch.labels))
        out += [logits.data] + [tape.grad(p).data for p in params.values()]
    return out


@pytest.mark.parametrize("change, dtype", [(rebind_w_r, np.float32),
                                           (rebind_w_r, np.float64),
                                           (shift_x_row_in_place, np.float32)])
def test_gru_weights_changed_after_a_forward_match_a_model_built_from_copies(change, dtype):
    # short docs: untaped scans take their padding prefix from the trajectory memo
    docs = separable_corpus(8, seed=4, min_len=3, max_len=8)
    model, encoded = build_toy_model(docs, toy_config(), dtype=dtype)
    randomize_gru_biases(model, 4)
    forward_outputs(model, encoded)
    change(model)
    got = forward_outputs(model, encoded)
    arrays = {name: t.data.copy() for name, t in model.state_tensors().items()}
    table = EmbeddingTable(vectors=arrays["embedding"], dim=model.config.embed_dim)
    twin = TextClassifier(model.config, model.vocab, table, model.ablation, dtype, arrays)
    for g, w in zip(got, forward_outputs(twin, encoded)):
        npt.assert_array_equal(g, w)
