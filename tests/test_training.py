import math

import numpy as np
import numpy.testing as npt
import pytest

from bgcapsule import tensor as T
from bgcapsule import training
from bgcapsule.ablation import run_ablation
from bgcapsule.config import AblationConfig
from bgcapsule.artifact import load_model, save_model
from bgcapsule.errors import ConfigError, ContractError, DataError
from bgcapsule.model import recurrent_dropout_mask
from bgcapsule.synthetic import separable_corpus
from bgcapsule.tensor import Tensor
from bgcapsule.text import (DatasetSplit, LabeledText, encode_docs, kfold_split,
                            random_embeddings)

from conftest import build_toy_model, randomize_gru_biases, toy_config
from oracles import grad_check


# ---------------------------------------------------------------------------
# cross-entropy


def test_cross_entropy_perfect_prediction():
    probs = Tensor([[1.0, 0.0], [0.0, 1.0]])
    assert training.cross_entropy(probs, np.array([0, 1])).item() == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_uniform_four_classes():
    probs = Tensor(np.full((3, 4), 0.25))
    loss = training.cross_entropy(probs, np.array([0, 1, 3]))
    assert loss.item() == pytest.approx(math.log(4.0), rel=1e-6)


def test_cross_entropy_hand_value():
    loss = training.cross_entropy(Tensor([[0.7, 0.3]]), np.array([0]))
    assert loss.item() == pytest.approx(-math.log(0.7), rel=1e-6)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(DataError):
        training.cross_entropy(Tensor([[0.5, 0.5]]), np.array([2]))


def test_cross_entropy_gradient_through_softmax():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 2, 3])
    report = grad_check(
        lambda t: training.cross_entropy(T.softmax(t, axis=1), labels),
        Tensor(logits, dtype=np.float64),
        name="softmax-xent",
    )
    assert report.passed, report.line()


def test_softmax_cross_entropy_confidently_wrong_keeps_its_gradient():
    logits = Tensor(np.array([[0.0, 200.0]], dtype=np.float32))
    with T.Tape() as tape:
        tape.watch(logits)
        loss = training.softmax_cross_entropy(logits, np.array([0]))
        tape.backward(loss)
        grad = tape.grad(logits).data
    assert loss.item() == pytest.approx(200.0, rel=1e-6)
    npt.assert_allclose(grad, [[-1.0, 1.0]], atol=1e-6)


def test_softmax_cross_entropy_matches_loss_of_probabilities():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
    labels = np.array([0, 2, 1, 2])
    fused = training.softmax_cross_entropy(logits, labels).item()
    split = training.cross_entropy(T.softmax(logits, axis=1), labels).item()
    assert fused == pytest.approx(split, rel=1e-12)


def test_softmax_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    labels = np.array([3, 0, 1])
    with T.Tape() as tape:
        tape.watch(logits)
        tape.backward(training.softmax_cross_entropy(logits, labels))
        grad = tape.grad(logits).data
    expected = T.softmax(logits, axis=1).data - np.eye(4)[labels]
    npt.assert_allclose(grad, expected / 3, rtol=1e-12)


def test_softmax_cross_entropy_label_out_of_range():
    with pytest.raises(DataError):
        training.softmax_cross_entropy(Tensor([[0.5, 0.5]]), np.array([2]))


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_leaves_params_bitwise():
    rng = np.random.default_rng(1)
    params = {"w": Tensor(rng.normal(size=(3, 3)).astype(np.float32))}
    before = params["w"].data.copy()
    opt = training.Adam(params, lr=0.1)
    opt.step({"w": Tensor(np.zeros((3, 3), dtype=np.float32))})
    npt.assert_array_equal(params["w"].data, before)


def test_adam_first_step_magnitude():
    params = {"w": Tensor(np.zeros(5, dtype=np.float32))}
    opt = training.Adam(params, lr=0.001)
    opt.step({"w": Tensor(np.ones(5, dtype=np.float32))})
    npt.assert_allclose(params["w"].data, np.full(5, -0.001), rtol=1e-5)


def test_adam_two_runs_identical():
    def run():
        rng = np.random.default_rng(2)
        params = {"w": Tensor(rng.normal(size=(4,)).astype(np.float32))}
        opt = training.Adam(params, lr=0.01)
        for step in range(5):
            g = np.sin(np.arange(4, dtype=np.float32) + step)
            opt.step({"w": Tensor(g)})
        return params["w"].data

    npt.assert_array_equal(run(), run())


def test_adam_shape_mismatch():
    params = {"w": Tensor(np.zeros(3, dtype=np.float32))}
    opt = training.Adam(params)
    with pytest.raises(ContractError):
        opt.step({"w": Tensor(np.zeros(4, dtype=np.float32))})


# ---------------------------------------------------------------------------
# dropout masks (drawn by the BiGRU ensemble)


def test_dropout_rate_zero_all_ones():
    mask = recurrent_dropout_mask((4, 5), 0.0, np.random.default_rng(0))
    npt.assert_array_equal(mask, np.ones((4, 5)))


def test_dropout_kept_fraction():
    mask = recurrent_dropout_mask((100000,), 0.25, np.random.default_rng(3))
    kept = float((mask > 0).mean())
    assert kept == pytest.approx(0.75, abs=0.01)
    # surviving entries are scaled to keep the expectation
    assert np.allclose(mask[mask > 0], 1.0 / 0.75)


def test_dropout_bad_rate():
    with pytest.raises(ContractError):
        recurrent_dropout_mask((2,), 1.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# training loop on the separable corpus


def test_train_reaches_95_percent(separable_docs):
    model, encoded = build_toy_model(separable_docs)
    result = training.train(model, encoded, [], model.config)
    assert result.final_train_acc >= 0.95


def test_cnn_capsule_learns_with_a_frozen_embedding(separable_docs):
    # the benchmark's configuration: no workload trains the embedding, so
    # the CNN is trained through its frozen-input path, where its backward
    # passes no gradient to the rows it reads
    config = toy_config(embed_trainable=False)
    model, encoded = build_toy_model(separable_docs, config, AblationConfig(variant="cnn_capsule"))
    result = training.train(model, encoded, [], model.config)
    assert result.final_train_acc >= 0.95


def test_loss_descends_after_one_epoch(separable_docs):
    model, encoded = build_toy_model(separable_docs, toy_config(epochs=1))
    initial = training.evaluate(model, encoded, 64).loss
    training.train(model, encoded, [], model.config)
    after = training.evaluate(model, encoded, 64).loss
    assert after < initial


def test_train_empty_dataset_rejected(toy_model):
    model, _ = toy_model
    with pytest.raises(ContractError):
        training.train(model, [], [], model.config)


def test_train_zero_epochs_rejected(separable_docs):
    model, encoded = build_toy_model(separable_docs)
    bad = toy_config(epochs=1)
    bad.epochs = 0
    with pytest.raises(Exception):
        training.train(model, encoded, [], bad)


def test_training_deterministic(separable_docs):
    def run():
        model, encoded = build_toy_model(separable_docs, toy_config(epochs=2))
        training.train(model, encoded, [], model.config)
        return {name: p.data.copy() for name, p in model.parameters().items()}

    first, second = run(), run()
    for name in first:
        npt.assert_array_equal(first[name], second[name], err_msg=name)


def test_best_validation_params_retained(separable_docs):
    train_docs = separable_docs[:160]
    val_docs = separable_docs[160:]
    model, encoded = build_toy_model(train_docs, toy_config(epochs=4))
    # encode validation docs with the same vocab
    from bgcapsule.text import encode_docs

    enc_val = encode_docs(val_docs, model.vocab, model.config.max_len)
    result = training.train(model, encoded, enc_val, model.config)
    metrics = training.evaluate(model, enc_val, 64)
    assert metrics.accuracy == pytest.approx(result.best_val_acc, abs=1e-9)
    assert result.best_epoch >= 1
    val_records = [r for r in result.history if r.split == "val"]
    assert max(r.acc for r in val_records) == pytest.approx(result.best_val_acc)


def test_metrics_line_format(separable_docs):
    model, encoded = build_toy_model(separable_docs, toy_config(epochs=1))
    lines = []
    training.train(model, encoded, encoded[:32], model.config, log=lines.append)
    assert lines[0].startswith("epoch=1 split=train loss=")
    assert lines[1].startswith("epoch=1 split=val loss=")


def test_pad_embedding_row_stays_zero_through_training(separable_docs):
    model, encoded = build_toy_model(separable_docs, toy_config(epochs=2))
    assert model.config.embed_trainable
    training.train(model, encoded, [], model.config)
    npt.assert_array_equal(model.embedding.data[0], np.zeros(model.config.embed_dim))


def test_trainable_embeddings_leave_callers_table_unchanged(separable_docs):
    # the model shares the caller's float32 table; training must rebind, never write into it
    from bgcapsule.model import TextClassifier
    from bgcapsule.text import build_vocab, encode_docs, random_embeddings, tokenize_lower

    config = toy_config(epochs=2)
    vocab = build_vocab(tokenize_lower(d.text) for d in separable_docs)
    table = random_embeddings(vocab, config.embed_dim, config.seed)
    before = table.vectors.copy()
    model = TextClassifier(config, vocab, table)
    encoded = encode_docs(separable_docs, vocab, config.max_len)
    training.train(model, encoded[:160], encoded[160:], config)
    assert not np.array_equal(model.embedding.data, before)
    npt.assert_array_equal(table.vectors, before)


def test_frozen_embeddings_unchanged(separable_docs):
    model, encoded = build_toy_model(separable_docs, toy_config(epochs=1, embed_trainable=False))
    before = model.embedding.data.copy()
    training.train(model, encoded, [], model.config)
    npt.assert_array_equal(model.embedding.data, before)


def test_eval_mode_ignores_dropout(separable_docs):
    model, encoded = build_toy_model(separable_docs, toy_config(epochs=1, dropout=0.9))
    a = training.evaluate(model, encoded[:40], 16)
    b = training.evaluate(model, encoded[:40], 16)
    assert a.accuracy == b.accuracy and a.loss == b.loss


@pytest.mark.parametrize("lengths", [(3, 10), (12, 24)], ids=["short", "long"])
def test_evaluate_in_batches_matches_one_document_at_a_time(lengths):
    # short docs share a padding prefix, which batched eval scans once per
    # batch; long ones fill 12 or more of the 16 positions, some truncated
    docs = separable_corpus(12, seed=5, min_len=lengths[0], max_len=lengths[1])
    model, encoded = build_toy_model(docs, toy_config(), dtype=np.float64)
    randomize_gru_biases(model, 5)
    metrics = training.evaluate(model, encoded, 4)
    losses, correct = [], 0
    for doc in encoded:
        logits = model.logits(np.array([doc.tokens]))
        losses.append(training.softmax_cross_entropy(logits, [doc.label]).item())
        correct += int(training.predicted_class(logits)[0] == doc.label)
    assert metrics.accuracy == correct / len(encoded)
    assert metrics.loss == pytest.approx(np.mean(losses), rel=0, abs=1e-12)


def test_predict_text_after_a_training_step_matches_a_loaded_copy(separable_docs, tmp_path):
    # the first predictions keep padding trajectories of the initial weights,
    # which the Adam step then changes in place
    model, encoded = build_toy_model(separable_docs, toy_config(epochs=1))
    texts = [doc.text for doc in separable_docs[:6]] + ["the", ""]
    before = [model.predict_text(text)[1] for text in texts]
    training.train(model, encoded[:8], [], model.config)
    path = tmp_path / "model.bgc"
    save_model(model, path)
    loaded = load_model(path)
    for text, old in zip(texts, before):
        got = model.predict_text(text)[1]
        npt.assert_array_equal(got, loaded.predict_text(text)[1])
        assert not np.array_equal(got, old)


def test_chance_level_accuracy_with_uniform_model(separable_docs):
    model, encoded = build_toy_model(separable_docs, toy_config(epochs=1))
    # zero out the head so the output is exactly uniform
    params = model.parameters()
    for name in ("head.w2", "head.b2"):
        params[name].data = np.zeros_like(params[name].data)
    metrics = training.evaluate(model, encoded, 64)
    # argmax of a uniform row is class 0; the corpus is balanced
    assert metrics.accuracy == pytest.approx(0.5, abs=0.01)


def test_train_and_evaluate_count_the_same_predicted_class(separable_docs):
    model, encoded = build_toy_model(separable_docs, toy_config(epochs=1))
    # every doc gets logits [0, 3e-8]: class 1 by the raw argmax, but a
    # float32 softmax ties them at 0.5/0.5, so class 0 by its argmax
    params = model.parameters()
    params["head.w2"].data = np.zeros_like(params["head.w2"].data)
    params["head.b2"].data = np.array([0.0, 3e-8], dtype=np.float32)
    docs = [d for d in encoded if d.label == 0][:6] + [d for d in encoded if d.label == 1][:2]
    before = training.evaluate(model, docs, 8)
    assert before.accuracy == 0.75
    # one batch of all eight: train counts the logits before its only step
    result = training.train(model, docs, [], model.config)
    assert result.history[0].acc == before.accuracy


# ---------------------------------------------------------------------------
# cross-validation


def test_cross_validate_report(separable_docs):
    cfg = toy_config(epochs=2)
    result = training.cross_validate(separable_docs[:60], cfg, k=3)
    assert len(result.fold_accuracies) == 3
    assert result.mean == pytest.approx(float(np.mean(result.fold_accuracies)))
    assert result.best == pytest.approx(float(np.max(result.fold_accuracies)))
    assert result.best >= result.mean


def test_cross_validate_picks_the_epoch_apart_from_the_fold_it_reports(separable_docs,
                                                                       monkeypatch):
    docs, cfg, k = separable_docs[:60], toy_config(epochs=3), 3
    calls, lines = [], []
    real_train = training.train

    def recording_train(model, train_docs, val_docs, config, log=None):
        calls.append((model, train_docs, val_docs))
        return real_train(model, train_docs, val_docs, config, log)

    monkeypatch.setattr(training, "train", recording_train)
    result = training.cross_validate(docs, cfg, k=k, log=lines.append)
    folds = kfold_split(docs, k, cfg.seed)
    assert len(calls) == k
    for i, ((model, fit_docs, val_docs), (fold_train, fold_test)) in enumerate(zip(calls, folds)):
        reported = encode_docs(fold_test, model.vocab, cfg.max_len, cfg.truncate_keep)
        assert len(val_docs) == 4 and len(fit_docs) + len(val_docs) == len(fold_train)
        assert not {tuple(d.tokens) for d in val_docs} & {tuple(d.tokens) for d in reported}
        # the fold is evaluated once, under the weights restored from the holdout's best epoch
        accuracy = training.evaluate(model, reported, cfg.batch_size).accuracy
        assert result.fold_accuracies[i] == accuracy
        assert lines[i] == f"fold={i} acc={accuracy:.4f}"
    assert lines[k:] == [f"mean={result.mean:.4f} best={result.best:.4f}"]


@pytest.mark.parametrize("protocol", ["cross_validate", "run_ablation"])
def test_a_label_outside_class_count_fails_before_any_vocabulary(protocol, monkeypatch):
    docs = [LabeledText(d.text, i % 3) for i, d in enumerate(separable_corpus(40, seed=1))]
    cfg = toy_config(epochs=1)

    def no_vocab(*args, **kwargs):
        raise AssertionError("built a vocabulary")

    monkeypatch.setattr(training, "build_vocab", no_vocab)
    with pytest.raises(ConfigError, match="class_count=2 .* to 2$"):
        if protocol == "cross_validate":
            training.cross_validate(docs, cfg, k=2)
        else:
            run_ablation(DatasetSplit(train=docs, test=[], class_count=3), cfg)


def test_cross_validate_reproducible(separable_docs):
    cfg = toy_config(epochs=1)
    a = training.cross_validate(separable_docs[:40], cfg, k=2)
    b = training.cross_validate(separable_docs[:40], cfg, k=2)
    assert a.fold_accuracies == b.fold_accuracies


def test_prepare_split_builds_vocab_from_training_docs_only():
    train_raw = [LabeledText("a b", 0), LabeledText("b c", 1)]
    eval_raw = [LabeledText("c d", 1)]
    cfg = toy_config(max_len=3)
    vocab, table, enc_train, (enc_eval,) = training.prepare_split(train_raw, [eval_raw], cfg)
    assert sorted(vocab.token_to_index) == ["a", "b", "c"]
    assert table.vectors.shape == (4, cfg.embed_dim)
    npt.assert_array_equal(table.vectors, random_embeddings(vocab, cfg.embed_dim, cfg.seed).vectors)
    assert [d.tokens for d in enc_train] == [[0, 1, 2], [0, 2, 3]]
    assert [d.tokens for d in enc_eval] == [[0, 3, 0]]  # "d" is unknown: the pad index
