"""Finite-difference verification of every differentiable operation.

Runs each op that ``tensor``, ``layers`` and ``training`` record at
small shapes in float64, and sweeps every parameter of a tiny model end
to end, one central difference per element (``oracles.grad_check``).
The CNN's convolution is checked where the model runs it, inside
``layers.cnn_feature_extractor``. Each op check reduces its op's output
to a scalar with ``_sq``, itself one ``matmul`` between two reshapes. Run it with ``gradsuite.run_suite(log=print)``;
``test_gradsuite.py`` requires every check to pass and every recording
function to be run.
"""

from __future__ import annotations

import numpy as np

from bgcapsule import layers as L
from bgcapsule import tensor as T
from bgcapsule.config import VARIANTS, AblationConfig, ModelConfig
from bgcapsule.model import TextClassifier
from bgcapsule.tensor import Tensor
from bgcapsule.text import LabeledText
from bgcapsule.training import cross_entropy, prepare_split, softmax_cross_entropy

from oracles import GradCheckReport, grad_check

OP_TOL = 1e-4
MODEL_TOL = 1e-3


def _sq(t):
    """Sum of squares of ``t``, as the taped [1, K] x [K, 1] ``matmul``."""
    k = t.size
    return T.reshape(T.matmul(T.reshape(t, (1, k)), T.reshape(t, (k, 1))), ())


def _op_checks() -> list[GradCheckReport]:
    rng = np.random.default_rng(42)
    reports = []

    def check(name, fn, x, tol=OP_TOL):
        """``x`` is an array, or a weight tensor that ``fn`` reads where it is held."""
        x = x if isinstance(x, Tensor) else Tensor(x, dtype=np.float64)
        reports.append(grad_check(fn, x, tol=tol, name=name))

    b = Tensor(rng.normal(size=(3, 3)), dtype=np.float64)
    check("matmul", lambda t: _sq(T.matmul(t, b)), rng.normal(size=(3, 3)))
    check("relu", lambda t: _sq(T.relu(t)), rng.normal(size=(6,)) + 0.3)
    bias = Tensor(rng.normal(size=(4,)), dtype=np.float64)
    check("add_bias", lambda t: _sq(T.add_bias(t, bias)), rng.normal(size=(3, 4)))
    check("softmax", lambda t: _sq(T.softmax(t, axis=1)), rng.normal(size=(3, 5)))

    column = Tensor(np.array([[1.0], [-2.0], [0.5], [3.0]]), dtype=np.float64)

    def structural(t):
        grid = T.reshape(t, (3, 4))
        return _sq(T.concat([grid, T.matmul(grid, column)], axis=1))

    check("structural", structural, rng.normal(size=(12,)))

    w_shared = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    check("predict_vectors/u", lambda t: _sq(L.predict_vectors(t, w_shared)),
          rng.normal(size=(1, 5, 3)))

    check("squash", lambda t: _sq(L.squash(t)), rng.normal(size=(20,)))
    check("squash_batched", lambda t: _sq(L.squash(t)), rng.normal(size=(2, 3, 4)))

    # both directions of a BiGRU, channel-concatenated as in the ensemble
    seq = Tensor(rng.normal(size=(1, 4, 3)), dtype=np.float64)
    p_fwd = L.init_gru(rng, 3, 2, np.float64)
    p_bwd = L.init_gru(rng, 3, 2, np.float64)

    def bigru(t, masks=(None, None)):
        return _sq(T.concat([L.run_gru(t, p_fwd, False, masks[0]),
                             L.run_gru(t, p_bwd, True, masks[1])], axis=2))

    check("bigru/seq", bigru, seq.data)
    for attr in ("w_z", "w_r", "w_h", "b_z", "b_r", "b_h"):
        check(f"bigru/{attr}", lambda _: bigru(seq), getattr(p_fwd, attr))

    # recurrent dropout: the mask scales the state seen by gates and candidate
    masks = tuple(rng.choice([0.0, 2.0], size=(2, 2)) for _ in range(2))
    check("bigru/masked_seq", lambda t: bigru(t, masks), rng.normal(size=(2, 4, 3)))

    # pre-padded input, half of it all-zero rows: they skip the input projection and dW_x
    padded = np.random.default_rng(7).normal(size=(2, 5, 3))
    padded[0, :3] = padded[1, :1] = padded[1, 3] = 0.0
    check("bigru/padded_seq", bigru, padded)
    padded_seq = Tensor(padded, dtype=np.float64)
    check("bigru/padded_w_z", lambda _: bigru(padded_seq), p_fwd.w_z)

    u = Tensor(rng.normal(size=(1, 3, 3)), dtype=np.float64)
    check("predict_vectors/weights", lambda t: _sq(L.predict_vectors(u, t)),
          rng.normal(size=(2, 3, 4)))

    # each capsule once, and counts as capsule merging gives them, 0 on a padding entry
    u_hat = rng.normal(size=(2, 2, 3, 4))
    merged = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 1.0]])
    for suffix, counts in (("", np.ones((2, 3))), ("/weighted", merged)):
        check(f"dynamic_routing{suffix}",
              lambda t, c=counts: _sq(L.dynamic_routing(t, 3, c)[0]), u_hat)

    head = L.head_params(L.drawing(rng, np.float64), 5, 4, 3)
    head_x = Tensor(rng.normal(size=(2, 5)), dtype=np.float64)
    labels = np.array([0, 2])
    check("dense_head/x", lambda t: softmax_cross_entropy(L.dense_head(t, head), labels),
          head_x.data)
    check("dense_head/w1", lambda _: softmax_cross_entropy(L.dense_head(head_x, head), labels),
          head.w1)
    check("softmax_xent", lambda t: cross_entropy(T.softmax(t, axis=1), labels),
          rng.normal(size=(2, 4)))
    # logits far apart, as in a confident prediction
    check("softmax_cross_entropy", lambda t: softmax_cross_entropy(t, labels),
          rng.normal(size=(2, 4)) * np.array([[1.0], [60.0]]))

    check("max_pool", lambda t: _sq(L.max_pool_routing(t, 2)), rng.normal(size=(1, 6, 3)))

    # the CNN over distinct positions into primary capsules. Docs: one that
    # fills T, one all zero, and two with a gap of zero rows inside the
    # text, the last of them live at position 0 and padded with entries
    # that repeat it. All-zero windows give the bias alone but still pass
    # gradient to the rows they cover. Each entry counts for the positions
    # it stands for, so the objective is the sum over every position and
    # stays smooth as a zero row turns nonzero and the entries change.
    cnn_x = np.random.default_rng(9).normal(size=(4, 9, 2))
    cnn_x[1] = cnn_x[2, :3] = cnn_x[2, 4:7] = cnn_x[3, 2:7] = 0.0
    cnn_kernels = [Tensor(rng.normal(size=(w, 2, 2)), dtype=np.float64) for w in (2, 3)]
    # one channel of each width live at a dead position, one cut by the ReLU
    cnn_biases = [Tensor(rng.uniform(0.2, 1.0, size=2) * [1.0, -1.0], dtype=np.float64)
                  for _ in cnn_kernels]
    caps_w = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
    caps_b = Tensor(rng.normal(size=(3,)), dtype=np.float64)

    def cnn_caps(t):
        features, distinct = L.cnn_feature_extractor(t, cnn_kernels, cnn_biases)
        caps = L.primary_capsules(features, caps_w, caps_b, 1, 3)
        root_counts = Tensor(np.diag(np.sqrt(distinct.counts).ravel()), dtype=np.float64)
        return _sq(T.matmul(root_counts, T.reshape(caps, (-1, caps.shape[2]))))

    cnn_x_t = Tensor(cnn_x, dtype=np.float64)
    check("cnn_capsules/x", cnn_caps, cnn_x)
    check("cnn_capsules/kernel", lambda _: cnn_caps(cnn_x_t), cnn_kernels[1])
    check("cnn_capsules/bias", lambda _: cnn_caps(cnn_x_t), cnn_biases[0])
    check("cnn_capsules/wide_bias", lambda _: cnn_caps(cnn_x_t), cnn_biases[1])
    # nonzero rows that repeat within and across documents, as token ids
    # look them up: the forward convolves each distinct row once, and a
    # difference step on one element of a repeated row splits it in two
    rep_table = np.random.default_rng(10).normal(size=(4, 2))
    rep_ids = np.array([[1, 2, 1, 1, 3, 2, 2, 1, 1],
                        [3, 3, 1, 2, 3, 0, 0, 0, 1],
                        [0, 0, 0, 2, 2, 1, 2, 2, 3]])
    check("cnn_capsules/x_repeated", cnn_caps, rep_table[rep_ids])

    return reports


def _toy_corpus() -> list[LabeledText]:
    # full-length docs so the checked point has no zero-padding ties
    return [
        LabeledText("alpha beta gamma delta epsilon zeta", 0),
        LabeledText("delta epsilon zeta alpha eta beta", 1),
        LabeledText("beta beta gamma eta zeta alpha", 0),
        LabeledText("zeta epsilon epsilon gamma delta eta", 1),
    ]


def _toy_model(variant: str) -> tuple[TextClassifier, np.ndarray, np.ndarray]:
    config = ModelConfig(
        max_len=6, embed_dim=5, bigru_sizes=[3, 2], caps_dim=3, primary_caps_per_pos=1,
        routed_caps=2, routed_caps_dim=3, routing_iters=3, dense_hidden=4, class_count=2,
        dropout=0.0, batch_size=2, epochs=1, lr=1e-3, seed=12, embed_trainable=True,
    )
    ablation = AblationConfig(variant=variant, cnn_filter_widths=[2, 3], cnn_filter_count=3,
                              pool_window=3)
    docs = _toy_corpus()
    vocab, table, _, (encoded,) = prepare_split(docs, [docs[:2]], config)
    # at the default +-0.05 embedding scale the double squash collapses
    # activations below the finite-difference step; check at a healthy scale
    table.vectors = table.vectors * 20.0
    model = TextClassifier(config, vocab, table, ablation, dtype=np.float64)
    ids = np.array([d.tokens for d in encoded], dtype=np.int32)
    labels = np.array([d.label for d in encoded], dtype=np.int64)
    return model, ids, labels


def _full_model_checks(variant: str) -> list[GradCheckReport]:
    """Every parameter of a 2-doc forward pass vs central differences."""
    model, ids, labels = _toy_model(variant)
    return [grad_check(lambda _: softmax_cross_entropy(model.logits(ids), labels), param,
                       tol=MODEL_TOL, name=f"model/{variant}/{name}")
            for name, param in model.parameters().items()]


def run_suite(log=None) -> list[GradCheckReport]:
    reports = _op_checks()
    for variant in VARIANTS:
        reports.extend(_full_model_checks(variant))
    if log:
        for report in reports:
            log(report.line())
    return reports
