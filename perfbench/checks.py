"""Output checks computed apart from the program under test.

The reference forward is written here in float64 numpy straight from
the model's equations; it shares no code with ``bgcapsule.layers`` and
reads only the model's named parameters and its config. Tolerances are
fixed from the dtype before anything runs:

* float32 model against the float64 reference: probabilities agree to
  ``PROB_TOL`` = 1000 float32 ulps at 1.0 (about 1.2e-4); a 200-step
  recurrence rounds at every step, so single ulps are too tight. An
  untrained bgcapsule's probabilities sit within 1e-5 of uniform, so
  they alone would pass a wrong GRU; the final routing logits, which
  every stage up to routing feeds, must also agree to 1000 float32
  ulps relative to their largest magnitude.
* tape gradients of a float64 copy against a central difference:
  error below ``GRAD_RTOL`` = ``eps**(1/3)`` relative, plus the
  rounding of the loss difference, ``ROUND_ULPS`` = 64 ulps of the loss
  over the step (the loss itself rounds to about 0.3 ulps), which
  dominates for a layer whose gradient is tiny, as in an untrained
  model whose outputs sit near uniform. The step
  ``FD_STEP`` = 1e-7 is below the smooth-case optimum ``eps**(1/3)``
  because ReLU makes the loss only piecewise smooth: the kinks a step
  crosses, and the error each adds, both shrink with the step (at
  ``eps**(1/3)`` a trained CNN read 1.7e-6), while rounding stays near
  ``eps * loss / (step * derivative)``, about 1e-9 here. The
  copy's parameters get a ``JITTER`` of Gaussian noise first: a bias
  that starts at 0 and never gets a gradient (a dead ReLU channel)
  stays exactly 0 under Adam, which puts every padded position of the
  CNN exactly on ReLU's kink, where no finite difference is a
  reference. A kink can still lie within the step on one side: a
  trained CNN read a central difference of 0.1156889 against a tape
  derivative of 0.1156919 (3.3 times the allowed error), with the
  forward difference at 0.1156860 and the backward one at 0.1156919.
  So the derivative passes if it agrees with the central or either
  one-sided difference; a wrong backward disagrees with all three.
* ``predict_text``'s class equals the reference's argmax wherever the
  reference's top two are further apart than twice the text's measured
  probability error, which the float32 model cannot reorder.
* an artifact round trip reproduces probabilities bit for bit.
* ``evaluate``'s accuracy equals a recount of the same documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from bgcapsule.artifact import load_model, save_model
from bgcapsule.model import TextClassifier
from bgcapsule.tensor import Tape
from bgcapsule.text import EmbeddingTable, batch_of
from bgcapsule.training import cross_entropy, evaluate

F32_EPS = float(np.finfo(np.float32).eps)
F64_EPS = float(np.finfo(np.float64).eps)
PROB_TOL = 1000 * F32_EPS
FD_STEP = 1e-7
GRAD_RTOL = F64_EPS ** (1 / 3)
ROUND_ULPS = 64
JITTER = 1e-4

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"check {self.name} {'ok' if self.ok else 'FAIL'} {self.detail}"


# ---------------------------------------------------------------------------
# reference forward


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _squash(s):
    q = (s * s).sum(axis=-1, keepdims=True)
    safe = np.where(q > 0, q, 1.0)
    return np.where(q > 0, s * np.sqrt(safe) / (1.0 + q), 0.0)


def _gru(x, p, prefix, reverse):
    """h_t = (1-z) h + z tanh([r*h, x] W_h + b_h), gates over [h, x]."""
    n, t_len, _ = x.shape
    w_z, w_r, w_h = p[f"{prefix}.w_z"], p[f"{prefix}.w_r"], p[f"{prefix}.w_h"]
    b_z, b_r, b_h = p[f"{prefix}.b_z"], p[f"{prefix}.b_r"], p[f"{prefix}.b_h"]
    hidden = w_z.shape[1]
    h = np.zeros((n, hidden))
    out = np.zeros((n, t_len, hidden))
    for t in (range(t_len - 1, -1, -1) if reverse else range(t_len)):
        hx = np.concatenate([h, x[:, t]], axis=1)
        z = _sigmoid(hx @ w_z + b_z)
        r = _sigmoid(hx @ w_r + b_r)
        cand = np.tanh(np.concatenate([r * h, x[:, t]], axis=1) @ w_h + b_h)
        h = (1.0 - z) * h + z * cand
        out[:, t] = h
    return out


def _conv_same(x, kernel, bias):
    n, t_len, _ = x.shape
    width = kernel.shape[0]
    left = (width - 1) // 2
    padded = np.zeros((n, t_len + width - 1, x.shape[2]))
    padded[:, left:left + t_len] = x
    out = sum(padded[:, d:d + t_len] @ kernel[d] for d in range(width))
    return np.maximum(out + bias, 0.0)


def reference_probs(model, token_ids):
    """Class probabilities [N, C] and final routing logits [N, I, J], in float64,
    for the bgcapsule and cnn_capsule variants."""
    cfg, variant = model.config, model.ablation.variant
    if cfg.softmax_axis != "output_caps" or cfg.head_activation != "relu":
        raise ValueError("the reference covers output_caps routing and a ReLU head only")
    p = {name: t.data.astype(np.float64) for name, t in model.state_tensors().items()}
    x = p["embedding"][np.asarray(token_ids)]
    n, t_len, _ = x.shape
    if variant == "bgcapsule":
        feats = np.concatenate([_gru(x, p, f"bigru{k}_{d}", d == "bwd")
                                for k in (1, 2) for d in ("fwd", "bwd")], axis=2)
    elif variant == "cnn_capsule":
        kernels = sorted(name for name in p if name.startswith("cnn") and name.endswith(".kernel"))
        feats = np.concatenate([_conv_same(x, p[k], p[k.replace(".kernel", ".bias")])
                                for k in kernels], axis=2)
    else:
        raise ValueError(f"no reference for variant {variant!r}")
    u = feats.reshape(n * t_len, -1) @ p["primary_caps.w"] + p["primary_caps.b"]
    u = _squash(u.reshape(n, t_len * cfg.primary_caps_per_pos, cfg.caps_dim))
    pair_w = p["routing.pair_w"]
    spec = "nid,jde->njie" if pair_w.ndim == 3 else "nid,jide->njie"
    u_hat = np.einsum(spec, u, pair_w)
    logits = np.zeros((n, u.shape[1], pair_w.shape[0]))
    for _ in range(cfg.routing_iters):
        c = _softmax(logits, axis=2)
        v = _squash(np.einsum("nij,njie->nje", c, u_hat))
        logits = logits + np.einsum("njie,nje->nij", u_hat, v)
    hidden = np.maximum(v.reshape(n, -1) @ p["head.w1"] + p["head.b1"], 0.0)
    return _softmax(hidden @ p["head.w2"] + p["head.b2"], axis=1), logits


def reference_ids(model, text: str) -> np.ndarray:
    """Lowercase word/punctuation tokens, unknown -> 0, zero-prepadded to max_len."""
    cfg, index = model.config, model.vocab.token_to_index
    ids = [index.get(tok, 0) for tok in _TOKEN_RE.findall(text.lower())]
    if len(ids) >= cfg.max_len:
        ids = ids[:cfg.max_len] if cfg.truncate_keep == "first" else ids[-cfg.max_len:]
    else:
        ids = [0] * (cfg.max_len - len(ids)) + ids
    return np.array([ids])


# ---------------------------------------------------------------------------
# checks


def check_forward(model, token_ids) -> CheckResult:
    got = model.forward(token_ids).data.astype(np.float64)
    probs, logits = reference_probs(model, token_ids)
    err = float(np.abs(got - probs).max())
    routing = model.last_routing.logits.astype(np.float64)
    rel = float(np.abs(routing - logits).max() / np.abs(logits).max())
    return CheckResult("reference_forward", err <= PROB_TOL and rel <= PROB_TOL,
                       f"docs={len(token_ids)} max_err={err:.3e} routing_rel_err={rel:.3e} "
                       f"tol={PROB_TOL:.3e}")


def check_gradients(model, token_ids, labels) -> CheckResult:
    """Directional derivatives of the loss on a float64 copy: tape vs central difference.

    One direction per parameter group (the name before the first dot:
    each GRU direction, each CNN width, the capsules, routing, the head),
    so a fault in a deep layer is not drowned by the head's larger
    gradient. Each direction is a random unit vector plus the group's
    unit gradient: a purely random direction over ~10^5 parameters has a
    derivative so small that rounding in the loss difference dominates.
    """
    src = model.state_tensors()
    table = EmbeddingTable(vectors=src["embedding"].data.astype(np.float64),
                           dim=model.config.embed_dim)
    twin = TextClassifier(model.config, model.vocab, table, model.ablation, dtype=np.float64)
    rng = np.random.default_rng(11)
    for name, tensor in twin.state_tensors().items():
        tensor.data = src[name].data.astype(np.float64)
    params = twin.parameters()
    for p in params.values():
        p.data = p.data + JITTER * rng.standard_normal(p.shape)

    def loss():
        return cross_entropy(twin.forward(token_ids), labels)

    with Tape() as tape:
        tape.watch(*params.values())
        value = loss()
        tape.backward(value)
        grads = {name: tape.grad(p).data for name, p in params.items()}
    groups: dict[str, list[str]] = {}
    for name in params:
        groups.setdefault(name.split(".")[0], []).append(name)
    errors = {}
    for group, names in groups.items():
        g_norm = np.sqrt(sum(float((grads[n] ** 2).sum()) for n in names))
        r = {n: rng.standard_normal(params[n].shape) for n in names}
        r_norm = np.sqrt(sum(float((v * v).sum()) for v in r.values()))
        d = {n: r[n] / r_norm + grads[n] / max(g_norm, 1e-300) for n in names}
        norm = np.sqrt(sum(float((v * v).sum()) for v in d.values()))
        analytic = sum(float((grads[n] * d[n]).sum()) for n in names) / norm
        base = {n: params[n].data for n in names}
        values = []
        for sign in (1.0, -1.0):
            for n in names:
                params[n].data = base[n] + (sign * FD_STEP / norm) * d[n]
            values.append(loss().item())
        for n in names:
            params[n].data = base[n]
        centre = value.item()
        # a ReLU kink within the step on one side spoils the central and
        # that side's difference, but not the other side's
        numerics = ((values[0] - values[1]) / (2.0 * FD_STEP), (values[0] - centre) / FD_STEP,
                    (centre - values[1]) / FD_STEP)
        # share of the allowed error: relative part plus the difference's rounding
        errors[group] = min(
            abs(analytic - numeric) / (GRAD_RTOL * max(abs(analytic), abs(numeric))
                                       + ROUND_ULPS * F64_EPS * abs(centre) / FD_STEP)
            for numeric in numerics)
    worst = max(errors, key=errors.get)
    return CheckResult("directional_gradients", errors[worst] <= 1.0,
                       f"groups={len(groups)} loss={value.item():.6f} worst={worst} "
                       f"err/allowed={errors[worst]:.3e}")


def check_accuracy(model, docs, batch_size) -> CheckResult:
    """``evaluate``'s accuracy against a recount from the model's probabilities."""
    reported = evaluate(model, docs, batch_size).accuracy
    batch = batch_of(docs)
    correct = int((model.forward(batch.token_ids).data.argmax(axis=1) == batch.labels).sum())
    ok = round(reported * len(docs)) == correct and abs(reported - correct / len(docs)) < 1e-12
    return CheckResult("accuracy_recount", ok,
                       f"docs={len(docs)} reported={reported:.6f} recount={correct}/{len(docs)}")


def check_predicted_class(model, texts) -> CheckResult:
    """``predict_text`` against the reference: probabilities within tolerance,
    and the reference's class on every text whose reference top two are more
    than twice the text's own probability error apart. There the model's
    ranking cannot differ from the reference's, however near uniform the
    model is; a check that compared no class fails."""
    worst, compared = 0.0, 0
    ok = True
    for text in texts:
        cls, probs = model.predict_text(text)
        ref = reference_probs(model, reference_ids(model, text))[0][0]
        err = float(np.abs(probs - ref).max())
        worst = max(worst, err)
        top2 = np.sort(ref)[-2:]
        if top2[1] - top2[0] > 2.0 * err:
            compared += 1
            ok &= cls == int(ref.argmax())
    ok &= worst <= PROB_TOL and compared > 0
    return CheckResult("predicted_class", ok,
                       f"texts={len(texts)} class_compared={compared} max_err={worst:.3e}")


def check_round_trip(model, path, token_ids) -> CheckResult:
    save_model(model, path)
    loaded = load_model(path)
    same = np.array_equal(model.forward(token_ids).data, loaded.forward(token_ids).data)
    return CheckResult("artifact_round_trip", bool(same), f"docs={len(token_ids)} bitwise={same}")
