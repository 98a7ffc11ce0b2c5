"""Finite-difference verification of every differentiable operation.

Runs each op at small shapes in float64 and sweeps every parameter of a
tiny model end to end, one central difference per element. Run it with
``gradsuite.run_suite(log=print)``; ``tests/test_gradsuite.py`` requires
every check to pass.
"""

from __future__ import annotations

import numpy as np

from . import layers as L
from . import tensor as T
from .config import VARIANTS, AblationConfig, ModelConfig
from .model import TextClassifier
from .tensor import GradCheckReport, Tensor, grad_check
from .text import LabeledText
from .training import cross_entropy, prepare_split, softmax_cross_entropy

OP_TOL = 1e-4
MODEL_TOL = 1e-3


def _sq(t):
    return T.reduce_sum(T.mul(t, t))


def _op_checks() -> list[GradCheckReport]:
    rng = np.random.default_rng(42)
    reports = []

    def check(name, fn, x, tol=OP_TOL):
        """``x`` is an array, or a weight tensor that ``fn`` reads where it is held."""
        x = x if isinstance(x, Tensor) else Tensor(x, dtype=np.float64)
        reports.append(grad_check(fn, x, tol=tol, name=name))

    b = Tensor(rng.normal(size=(3, 3)), dtype=np.float64)
    check("matmul", lambda t: T.reduce_sum(T.matmul(t, b)), rng.normal(size=(3, 3)))
    check("sigmoid", lambda t: _sq(T.sigmoid(t)), rng.normal(size=(6,)))
    check("tanh", lambda t: _sq(T.tanh(t)), rng.normal(size=(6,)))
    check("relu", lambda t: _sq(T.relu(t)), rng.normal(size=(6,)) + 0.3)
    check("selu", lambda t: _sq(T.selu(t)), rng.normal(size=(6,)))
    check("add_mul_sub", lambda t: T.reduce_sum(T.mul(T.add(t, t), T.sub(t, T.mul(t, t)))),
          rng.normal(size=(2, 3)))
    bias = Tensor(rng.normal(size=(4,)), dtype=np.float64)
    check("add_bias", lambda t: _sq(T.add_bias(t, bias)), rng.normal(size=(3, 4)))
    check("softmax", lambda t: _sq(T.softmax(t, axis=1)), rng.normal(size=(3, 5)))

    def structural(t):
        grid = T.reshape(t, (3, 4))
        return _sq(T.concat([grid, T.reduce_sum(grid, axis=1, keepdims=True)], axis=1))

    check("structural", structural, rng.normal(size=(12,)))

    w_shared = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    check("einsum2", lambda t: _sq(T.einsum2("nid,jde->njie", t, w_shared)),
          rng.normal(size=(1, 5, 3)))

    check("squash", lambda t: _sq(L.squash(t)), rng.normal(size=(20,)))
    check("squash_batched", lambda t: _sq(L.squash(t, axis=-1)), rng.normal(size=(2, 3, 4)))

    # GRU cell: wrt input, state, and each weight group
    params = L.init_gru(rng, 3, 2, np.float64)
    x_t = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
    h_prev = Tensor(rng.normal(size=(2, 2)), dtype=np.float64)
    check("gru_step/x", lambda t: _sq(L.gru_step(t, h_prev, params)), x_t.data)
    check("gru_step/h", lambda t: _sq(L.gru_step(x_t, t, params)), h_prev.data)
    for attr in ("w_z", "w_r", "w_h", "b_z", "b_r", "b_h"):
        check(f"gru_step/{attr}", lambda _: _sq(L.gru_step(x_t, h_prev, params)),
              getattr(params, attr))

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
    masks = tuple(Tensor(rng.choice([0.0, 2.0], size=(2, 2)), dtype=np.float64) for _ in range(2))
    check("bigru/masked_seq", lambda t: bigru(t, masks), rng.normal(size=(2, 4, 3)))

    # pre-padded input, half of it all-zero rows: they skip the input projection and dW_x
    padded = np.random.default_rng(7).normal(size=(2, 5, 3))
    padded[0, :3] = padded[1, :1] = padded[1, 3] = 0.0
    check("bigru/padded_seq", bigru, padded)
    padded_seq = Tensor(padded, dtype=np.float64)
    check("bigru/padded_w_z", lambda _: bigru(padded_seq), p_fwd.w_z)

    u = Tensor(rng.normal(size=(1, 3, 3)), dtype=np.float64)
    check("predict_vectors/shared", lambda t: _sq(L.predict_vectors(u, t)),
          rng.normal(size=(2, 3, 4)))
    check("predict_vectors/per_pair", lambda t: _sq(L.predict_vectors(u, t)),
          rng.normal(size=(2, 3, 3, 4)))

    u_hat = rng.normal(size=(1, 2, 3, 4))

    def routing_target(t):
        v, _ = L.dynamic_routing(t, iterations=3)
        return _sq(v)

    check("dynamic_routing", routing_target, u_hat)

    head = L.init_head(rng, 5, 4, 3, np.float64)
    head_x = Tensor(rng.normal(size=(2, 5)), dtype=np.float64)
    labels = np.array([0, 2])
    for activation in ("relu", "selu"):
        check(f"dense_head/{activation}/x",
              lambda t, a=activation: softmax_cross_entropy(L.dense_head(t, head, a), labels),
              head_x.data)

    check("dense_head/w1", lambda _: softmax_cross_entropy(L.dense_head(head_x, head), labels),
          head.w1)
    check("softmax_xent", lambda t: cross_entropy(T.softmax(t, axis=1), labels),
          rng.normal(size=(2, 4)))
    # logits far apart, as in a confident prediction
    check("softmax_cross_entropy", lambda t: softmax_cross_entropy(t, labels),
          rng.normal(size=(2, 4)) * np.array([[1.0], [60.0]]))

    kernel = Tensor(rng.normal(size=(3, 2, 3)), dtype=np.float64)
    conv_bias = Tensor(rng.normal(size=(3,)), dtype=np.float64)
    check("conv1d/x", lambda t: _sq(L.conv1d_same(t, kernel, conv_bias)),
          rng.normal(size=(1, 5, 2)))
    check("conv1d/kernel", lambda t: _sq(L.conv1d_same(seq, t, conv_bias)),
          rng.normal(size=(3, 3, 3)))
    check("max_pool", lambda t: _sq(L.max_pool_routing(t, 2)), rng.normal(size=(1, 6, 3)))

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


def run_suite(include_model: bool = True, log=None) -> list[GradCheckReport]:
    reports = _op_checks()
    if include_model:
        for variant in VARIANTS:
            reports.extend(_full_model_checks(variant))
    if log:
        for report in reports:
            log(report.line())
    return reports
