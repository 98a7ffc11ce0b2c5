"""Loss, Adam, data preparation, the training loop, evaluation, the
fit–select–test routine and k-fold CV.

Training and evaluation take the loss from the model's logits with the
fused ``softmax_cross_entropy``, so a confidently wrong prediction keeps
its full loss and gradient.

Metrics are emitted as line-oriented records (``epoch=.. split=..
loss=.. acc=..``; CV adds ``fold=.. acc=..`` then ``mean=.. best=..``)
so they can be streamed, diffed, and parsed trivially.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .config import AblationConfig, ModelConfig
from .errors import ConfigError, ContractError, DataError
from .model import TextClassifier
from .tensor import Tape, Tensor, record_op
from .text import (
    build_vocab,
    encode_docs,
    holdout_split,
    iter_batches,
    kfold_split,
    load_glove,
    random_embeddings,
    tokenize_lower,
)

PROB_FLOOR = 1e-12


def _check_labels(scores: Tensor, labels) -> np.ndarray:
    labels = np.asarray(labels)
    n, classes = scores.shape
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} does not match batch of {n}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise DataError(f"label outside [0, {classes})")
    return labels


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log probability of the true class, floored at 1e-12.

    The loss for callers that hold only probabilities: below the floor
    there is no gradient. Training uses ``softmax_cross_entropy``.
    """
    labels = _check_labels(probs, labels)
    n = len(labels)
    picked = probs.data[np.arange(n), labels]
    clipped = np.maximum(picked, PROB_FLOOR)
    out = np.asarray(-np.log(clipped).mean(), dtype=probs.dtype)

    def back(g):
        grad = np.zeros_like(probs.data)
        grad[np.arange(n), labels] = np.where(picked > PROB_FLOOR, -g / (n * clipped), 0.0)
        return (grad,)

    return record_op(out, (probs,), back)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of the true class under ``softmax(logits)``, as one op.

    A max-shifted log-softmax keeps every term finite (logits [0, 200] with
    label 0 give 200); the gradient is ``(softmax - onehot) / N``.
    """
    labels = _check_labels(logits, labels)
    n = len(labels)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = np.asarray(-log_probs[np.arange(n), labels].mean(), dtype=logits.dtype)

    def back(g):
        grad = np.exp(log_probs)
        grad[np.arange(n), labels] -= 1.0
        return (grad * (g / n),)

    return record_op(out, (logits,), back)


def predicted_class(logits: Tensor) -> np.ndarray:
    """Argmax of ``softmax(logits)`` per row, as ``TextClassifier.forward``
    gives it: float32 logits [0, 3e-8] round to a 0.5/0.5 tie, class 0."""
    return T.softmax(logits, axis=1).data.argmax(axis=1)


class Adam:
    """Standard Adam with bias correction; one state slot per parameter."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, grads: dict[str, Tensor]) -> None:
        self.t += 1
        for name, param in self.params.items():
            g = grads[name].data
            if g.shape != param.shape:
                raise ContractError(f"gradient shape {g.shape} != param {param.shape} for {name}")
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class EpochRecord:
    epoch: int
    split: str  # train | val
    loss: float
    acc: float

    def line(self) -> str:
        return f"epoch={self.epoch} split={self.split} loss={self.loss:.6f} acc={self.acc:.4f}"


@dataclass
class EvalMetrics:
    loss: float
    accuracy: float
    class_total: np.ndarray  # docs per true class
    class_correct: np.ndarray


@dataclass
class TrainResult:
    history: list[EpochRecord]
    best_epoch: int
    best_val_acc: float
    final_train_acc: float


def prepare_split(train_raw, eval_sets, config: ModelConfig, glove_path=None):
    """Vocabulary from ``train_raw``, its table (GloVe, or random) seeded by
    ``config.seed``, the encoded training docs and a list of each eval set encoded."""
    vocab = build_vocab(tokenize_lower(d.text) for d in train_raw)
    if glove_path is not None:
        table, _ = load_glove(glove_path, vocab, config.embed_dim, config.seed)
    else:
        table = random_embeddings(vocab, config.embed_dim, config.seed)

    def encode(docs):
        return encode_docs(docs, vocab, config.max_len, config.truncate_keep)

    return vocab, table, encode(train_raw), [encode(docs) for docs in eval_sets]


def train(model, train_docs, val_docs, config: ModelConfig, log=None) -> TrainResult:
    """Mini-batch Adam over seeded shuffles; keeps the best-validation epoch.

    ``log`` is called with each metrics line as it is produced.
    """
    if not train_docs:
        raise ContractError("training set is empty")
    config.validate()
    params = model.parameters()
    optimizer = Adam(params, lr=config.lr)
    history: list[EpochRecord] = []
    best_val, best_epoch, best_state = -1.0, 0, None
    final_train_acc = 0.0

    for epoch in range(1, config.epochs + 1):
        shuffle_rng = np.random.default_rng([config.seed, 4, epoch])
        dropout_rng = np.random.default_rng([config.seed, 5, epoch])
        total_loss, correct = 0.0, 0.0
        for batch in iter_batches(train_docs, config.batch_size, shuffle_rng):
            with Tape() as tape:
                tape.watch(*params.values())
                logits = model.logits(batch.token_ids, dropout_rng)
                loss = softmax_cross_entropy(logits, batch.labels)
                tape.backward(loss)
                grads = {name: tape.grad(p) for name, p in params.items()}
            optimizer.step(grads)
            total_loss += loss.item() * len(batch.labels)
            correct += float((predicted_class(logits) == batch.labels).sum())
        record = EpochRecord(epoch, "train", total_loss / len(train_docs),
                             correct / len(train_docs))
        history.append(record)
        final_train_acc = record.acc
        if log:
            log(record.line())
        if val_docs:
            metrics = evaluate(model, val_docs, config.batch_size)
            val_record = EpochRecord(epoch, "val", metrics.loss, metrics.accuracy)
            history.append(val_record)
            if log:
                log(val_record.line())
            if metrics.accuracy > best_val:
                best_val = metrics.accuracy
                best_epoch = epoch
                best_state = {name: p.data.copy() for name, p in params.items()}

    if best_state is not None:
        for name, param in params.items():
            param.data = best_state[name]
    else:
        best_val = final_train_acc
        best_epoch = config.epochs
    return TrainResult(history=history, best_epoch=best_epoch, best_val_acc=best_val,
                       final_train_acc=final_train_acc)


def evaluate(model, docs, batch_size: int) -> EvalMetrics:
    """Accuracy and mean loss in eval mode; deterministic.

    Results match those of one document at a time to rounding: untaped,
    a batch's forward GRUs take the states over the padding its documents
    share from each direction's padding trajectory, scanned once per
    change of the weights (``layers.run_gru``), and scan only the rest."""
    if not docs:
        raise ContractError("evaluation set is empty")
    classes = model.config.class_count
    total_loss, correct = 0.0, 0.0
    class_total = np.zeros(classes, dtype=np.int64)
    class_correct = np.zeros(classes, dtype=np.int64)
    for batch in iter_batches(docs, batch_size):
        logits = model.logits(batch.token_ids)
        total_loss += softmax_cross_entropy(logits, batch.labels).item() * len(batch.labels)
        predicted = predicted_class(logits)
        hits = batch.labels[predicted == batch.labels]
        class_total += np.bincount(batch.labels, minlength=classes)
        class_correct += np.bincount(hits, minlength=classes)
        correct += float(len(hits))
    return EvalMetrics(loss=total_loss / len(docs), accuracy=correct / len(docs),
                       class_total=class_total, class_correct=class_correct)


def fit_and_test(train_raw, test_raw, config: ModelConfig, ablations, glove_path=None,
                 val_fraction: float = 0.1):
    """Yield ``(model, train result, test metrics)`` per ablation: each model
    keeps its best epoch on a seeded ``val_fraction`` of ``train_raw`` and
    is then evaluated once on ``test_raw``. All share one vocabulary and table."""
    labels = [doc.label for doc in (*train_raw, *test_raw)]
    low, high = min(labels, default=0), max(labels, default=0)
    if low < 0 or high >= config.class_count:
        raise ConfigError(f"class_count={config.class_count} does not cover the labels, "
                          f"which run from {low} to {high}")
    fit_raw, val_raw = holdout_split(train_raw, val_fraction, config.seed)
    vocab, table, enc_fit, (enc_val, enc_test) = prepare_split(
        fit_raw, [val_raw, test_raw], config, glove_path)
    for ablation in ablations:
        model = TextClassifier(config, vocab, table, ablation)
        outcome = train(model, enc_fit, enc_val, config)
        yield model, outcome, evaluate(model, enc_test, config.batch_size)


@dataclass
class CvResult:
    fold_accuracies: list[float]
    mean: float
    best: float


def cross_validate(raw_docs, config: ModelConfig, k: int = 10,
                   ablation: AblationConfig | None = None, glove_path=None,
                   log=None) -> CvResult:
    """Train k independent models on a seeded fold partition.

    Each fold gets its own vocabulary, embeddings, and seed derived from
    the base seed, so the whole report reproduces bit-for-bit. Each fold
    is one ``fit_and_test`` that reports the fold's test accuracy.
    """
    accuracies: list[float] = []
    for i, (fold_train, fold_test) in enumerate(kfold_split(raw_docs, k, config.seed)):
        fold_config = replace(config, seed=config.seed + 1000 * (i + 1))
        [(_, _, metrics)] = fit_and_test(fold_train, fold_test, fold_config, [ablation],
                                         glove_path)
        accuracies.append(metrics.accuracy)
        if log:
            log(f"fold={i} acc={metrics.accuracy:.4f}")
    mean = float(np.mean(accuracies))
    best = float(np.max(accuracies))
    if log:
        log(f"mean={mean:.4f} best={best:.4f}")
    return CvResult(fold_accuracies=accuracies, mean=mean, best=best)
