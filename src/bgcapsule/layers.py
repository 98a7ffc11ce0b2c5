"""Forward stack: embedding lookup, the GRU scan, capsules with
agreement routing, and the dense head that gives class logits.

Shapes use N for batch, T for sequence length, F for features, I/J for
capsule counts in the lower/upper layer, and D for capsule dimension.
Every op here is recorded on the active tape and passes gradient
checking; see ``gradsuite``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor, record_op


def glorot_uniform(rng, shape, dtype=np.float32) -> Tensor:
    """Fan-based uniform init; fans are the trailing two extents."""
    fan_in, fan_out = (shape[0], shape[0]) if len(shape) == 1 else (shape[-2], shape[-1])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape).astype(dtype))


def drawing(rng, dtype=np.float32):
    """``param(name, shape)`` that draws a new tensor, in call order: zeros
    for a rank-1 tensor (every bias), ``glorot_uniform`` for the rest."""
    def param(name, shape):
        return T.zeros(shape, dtype) if len(shape) == 1 else glorot_uniform(rng, shape, dtype)
    return param


# ---------------------------------------------------------------------------
# embedding


def embedding_forward(table: Tensor, token_ids: np.ndarray, trainable: bool = False) -> Tensor:
    """Gather rows of [V+1, E] by integer ids [N, T] -> [N, T, E].

    With ``trainable`` the gradient scatter-adds into the table, except
    row 0 (padding), which never receives gradient.
    """
    ids = np.asarray(token_ids)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.shape[0]:
        raise DimensionError(
            f"token ids outside table with {table.shape[0]} rows"
        )
    out = table.data[ids]
    if not trainable:
        return Tensor(out)

    def back(g):
        grad = np.zeros_like(table.data)
        np.add.at(grad, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        grad[0] = 0.0
        return (grad,)

    return record_op(out, (table,), back)


# ---------------------------------------------------------------------------
# GRU


@dataclass
class GruParams:
    """Gate and candidate weights over the [h, x] concatenation."""

    w_z: Tensor  # (hidden+input, hidden)
    w_r: Tensor
    w_h: Tensor
    b_z: Tensor  # (hidden,)
    b_r: Tensor
    b_h: Tensor

    @property
    def hidden_size(self) -> int:
        return self.w_z.shape[1]

    def named(self, prefix: str):
        yield f"{prefix}.w_z", self.w_z
        yield f"{prefix}.w_r", self.w_r
        yield f"{prefix}.w_h", self.w_h
        yield f"{prefix}.b_z", self.b_z
        yield f"{prefix}.b_r", self.b_r
        yield f"{prefix}.b_h", self.b_h


def gru_params(param, prefix: str, input_size: int, hidden_size: int) -> GruParams:
    """One GRU's tensors, asked of ``param(name, shape)`` as ``<prefix>.w_z`` etc."""
    total = hidden_size + input_size
    return GruParams(*[param(f"{prefix}.w_{g}", (total, hidden_size)) for g in "zrh"],
                     *[param(f"{prefix}.b_{g}", (hidden_size,)) for g in "zrh"])


def init_gru(rng, input_size: int, hidden_size: int, dtype=np.float32) -> GruParams:
    return gru_params(drawing(rng, dtype), "gru", input_size, hidden_size)


def gru_step(x_t: Tensor, h_prev: Tensor, params: GruParams, h_mask: Tensor | None = None) -> Tensor:
    """One GRU update for a batch: [N,F], [N,H] -> [N,H].

    ``h_mask`` is an optional recurrent-dropout mask applied to the
    hidden state as seen by the gates; the state carried through the
    update-gate interpolation stays unmasked.
    """
    h_in = T.mul(h_prev, h_mask) if h_mask is not None else h_prev
    hx = T.concat([h_in, x_t], axis=1)
    z = T.sigmoid(T.add_bias(T.matmul(hx, params.w_z), params.b_z))
    r = T.sigmoid(T.add_bias(T.matmul(hx, params.w_r), params.b_r))
    rh = T.concat([T.mul(r, h_in), x_t], axis=1)
    candidate = T.tanh(T.add_bias(T.matmul(rh, params.w_h), params.b_h))
    keep = T.sub(T.ones(z.shape, z.dtype), z)
    return T.add(T.mul(keep, h_prev), T.mul(z, candidate))


def run_gru(seq: Tensor, params: GruParams, reverse: bool = False,
            h_mask: Tensor | None = None) -> Tensor:
    """Scan a GRU over [N,T,F] -> [N,T,H] from h = 0, as one tape op.

    The math is ``gru_step``'s at every position. With ``reverse`` the
    scan runs right-to-left but outputs stay at their original
    positions. ``h_mask`` (recurrent dropout, [N,H]) multiplies the
    state seen by the gates and the candidate; it gets no gradient.

    Forward: each weight splits into h-rows ``U`` and x-rows ``W``. One
    [L,F]x[F,3H] GEMM over ``W_z|W_r|W_h`` plus the biases projects the
    positions before the loop. L is T*N, or, when all-zero (padding)
    input rows are half of them or more, the live rows only; a padding
    row then gets the biases alone, which is what the GEMM gives it.
    Each step adds one ``h_in.[U_z|U_r]`` and one ``(r*h_in).U_h`` GEMM.
    Saved for the backward, all time-major: the L projected input rows,
    the gate outputs z|r|c as [T,N,3H], the states as [T+1,N,H]
    (position t reads its previous state from one end and writes its
    own to the other), and the masked states h_in as [T,N,H] when there
    is a mask.

    Backward: BPTT runs the steps in reverse scan order, writing the
    gradients of the gate pre-activations into one [T,N,3H] buffer and
    carrying only dh between steps. dW, db and d(seq) then come from a
    few GEMMs over that buffer flattened to [T*N,3H]; dW_x reads the
    same L rows, and d(seq) is skipped when ``seq`` needs no gradient
    (``tensor.needs_grad``), as for a frozen embedding.
    """
    if seq.ndim != 3 or seq.shape[2] + params.hidden_size != params.w_z.shape[0]:
        raise DimensionError(
            f"GRU with weights {params.w_z.shape} cannot scan a sequence of shape {seq.shape}"
        )
    n, t_len, feat = seq.shape
    hid = params.hidden_size
    dtype = seq.dtype
    weights = (params.w_z, params.w_r, params.w_h)
    w_x = np.concatenate([w.data[hid:] for w in weights], axis=1)
    u_zr = np.concatenate([w.data[:hid] for w in weights[:2]], axis=1)
    u_h = params.w_h.data[:hid]
    bias = np.concatenate([params.b_z.data, params.b_r.data, params.b_h.data])
    rows = t_len * n
    x_rows = np.ascontiguousarray(seq.data.transpose(1, 0, 2)).reshape(rows, feat)
    live = np.flatnonzero(x_rows.any(axis=1))
    if 2 * len(live) > rows:
        # gathering and scattering a row costs a third to a half as much as
        # projecting it (F=300, H=200-256), so padding is skipped only
        # where it fills half the rows or more
        live = slice(None)
    x_rows = x_rows[live]  # all dW_x needs; the full copy is freed
    proj = x_rows @ w_x
    proj += bias
    if len(x_rows) < rows:
        full = np.empty((rows, 3 * hid), proj.dtype)
        full[:] = bias  # what the GEMM gives an all-zero (padding) row
        full[live] = proj
        proj = full
    proj = proj.reshape(t_len, n, 3 * hid)
    seq_grad = T.needs_grad(seq)

    mask = None if h_mask is None else h_mask.data
    # position t reads h_prev from states[t + src] and writes h to states[t + dst]
    src, dst = (1, 0) if reverse else (0, 1)
    steps = range(t_len - 1, -1, -1) if reverse else range(t_len)
    states = np.zeros((t_len + 1, n, hid), dtype)
    gates = np.empty((t_len, n, 3 * hid), dtype)  # z | r | c
    h_in_all = states[src:src + t_len] if mask is None else np.empty((t_len, n, hid), dtype)
    with np.errstate(over="ignore"):
        for t in steps:
            h_prev = states[t + src]
            h_in = h_prev if mask is None else np.multiply(h_prev, mask, out=h_in_all[t])
            zrc = gates[t]
            pre = h_in @ u_zr
            pre += proj[t, :, :2 * hid]
            zrc[:, :2 * hid] = 1.0 / (1.0 + np.exp(-pre))
            z, r = zrc[:, :hid], zrc[:, hid:2 * hid]
            pre = (r * h_in) @ u_h
            pre += proj[t, :, 2 * hid:]
            c = np.tanh(pre, out=zrc[:, 2 * hid:])
            states[t + dst] = (1.0 - z) * h_prev + z * c
    out = np.ascontiguousarray(states[dst:dst + t_len].transpose(1, 0, 2))

    def back(g):
        g_tm = g.transpose(1, 0, 2)
        d_pre = np.empty((t_len, n, 3 * hid), dtype)  # d(pre-activation) of z | r | c
        dh = np.zeros((n, hid), dtype)
        for t in reversed(steps):
            z, r, c = gates[t, :, :hid], gates[t, :, hid:2 * hid], gates[t, :, 2 * hid:]
            h_in = h_in_all[t]
            d = d_pre[t]
            dh = dh + g_tm[t]
            d[:, :hid] = dh * (c - states[t + src]) * z * (1.0 - z)
            d[:, 2 * hid:] = dh * z * (1.0 - c * c)
            d_rh = d[:, 2 * hid:] @ u_h.T
            d[:, hid:2 * hid] = d_rh * h_in * r * (1.0 - r)
            dh_in = d_rh * r + d[:, :2 * hid] @ u_zr.T
            dh = dh * (1.0 - z) + (dh_in if mask is None else dh_in * mask)

        flat = d_pre.reshape(rows, 3 * hid)
        rh = gates[:, :, hid:2 * hid] * h_in_all
        d_u = np.concatenate([
            h_in_all.reshape(rows, hid).T @ flat[:, :2 * hid],
            rh.reshape(rows, hid).T @ flat[:, 2 * hid:],
        ], axis=1)
        d_wx = x_rows.T @ flat[live]
        d_w = [np.concatenate([d_u[:, k * hid:(k + 1) * hid], d_wx[:, k * hid:(k + 1) * hid]])
               for k in range(3)]
        d_b = np.split(flat.sum(axis=0), 3)
        d_seq = (flat @ w_x.T).reshape(t_len, n, feat).transpose(1, 0, 2) if seq_grad else None
        return (d_seq, *d_w, *d_b)

    return record_op(out, (seq, *weights, params.b_z, params.b_r, params.b_h), back)


# ---------------------------------------------------------------------------
# capsules


def squash(t: Tensor, axis: int = -1) -> Tensor:
    """Norm-limiting nonlinearity: v = (|s|^2 / (1+|s|^2)) * s/|s|.

    Keeps direction, maps norms into [0, 1). Zero vectors stay zero and
    get zero gradient.
    """
    x = t.data
    axis = axis % x.ndim if x.ndim else 0
    q = (x * x).sum(axis=axis, keepdims=True)  # |s|^2
    safe_q = np.where(q > 0, q, 1.0)
    root = np.sqrt(safe_q)
    scale = np.where(q > 0, root / (1.0 + q), 0.0)
    out = (x * scale).astype(t.dtype, copy=False)

    def back(g):
        # d scale/d q = (1 - q) / (2 sqrt(q) (1+q)^2), chain through q = sum s^2
        dscale_dq = np.where(q > 0, (1.0 - q) / (2.0 * root * (1.0 + q) ** 2), 0.0)
        inner = (g * x).sum(axis=axis, keepdims=True)
        return ((g * scale + 2.0 * x * dscale_dq * inner).astype(t.dtype, copy=False),)

    return record_op(out, (t,), back)


def primary_capsules(features: Tensor, weight: Tensor, bias: Tensor,
                     caps_per_pos: int, caps_dim: int) -> Tensor:
    """Project per-position features into capsules and squash.

    [N,T,F] with weight [F, caps_per_pos*caps_dim] -> [N, T*caps_per_pos, caps_dim].
    """
    n, t_len, feat = features.shape
    if weight.shape != (feat, caps_per_pos * caps_dim):
        raise ConfigError(
            f"primary capsule projection {weight.shape} does not map {feat} features "
            f"to {caps_per_pos}x{caps_dim} capsules"
        )
    flat = T.reshape(features, (n * t_len, feat))
    projected = T.add_bias(T.matmul(flat, weight), bias)
    caps = T.reshape(projected, (n, t_len * caps_per_pos, caps_dim))
    return squash(caps, axis=-1)


def predict_vectors(u: Tensor, weights: Tensor) -> Tensor:
    """Per-pair votes u_hat[j|i] = W_ij u_i.

    ``weights`` is either [J, D, D'] (shared over input capsules) or
    [J, I, D, D'] (one matrix per pair); u is [N, I, D]. Returns
    [N, J, I, D'].
    """
    if weights.ndim == 3:
        if weights.shape[1] != u.shape[2]:
            raise DimensionError(f"prediction weights {weights.shape} vs capsules {u.shape}")
        return T.einsum2("nid,jde->njie", u, weights)
    if weights.ndim == 4:
        if weights.shape[1] != u.shape[1] or weights.shape[2] != u.shape[2]:
            raise DimensionError(f"prediction weights {weights.shape} vs capsules {u.shape}")
        return T.einsum2("nid,jide->njie", u, weights)
    raise DimensionError(f"prediction weights must have rank 3 or 4, got {weights.shape}")


@dataclass
class RoutingInfo:
    """Final logits plus the couplings of every iteration."""

    logits: np.ndarray  # [N, I, J]
    iterations: int
    coupling_history: list  # one [N, I, J] array per iteration

    @property
    def couplings(self) -> np.ndarray:
        """The last iteration's couplings [N, I, J]."""
        return self.coupling_history[-1]


def dynamic_routing(u_hat: Tensor, iterations: int,
                    normalize_over: str = "output_caps") -> tuple[Tensor, RoutingInfo]:
    """Agreement routing over prediction vectors [N, J, I, D'].

    Logits start at zero; each round takes the coupling softmax, forms
    the weighted vote sum per upper capsule, squashes it, and adds the
    vote/output dot products back into the logits. The whole unroll is
    differentiable. ``normalize_over`` picks the softmax axis: couplings
    of one input capsule over upper capsules ("output_caps", default) or
    of one upper capsule over inputs ("input_caps").
    """
    if iterations < 1:
        raise ContractError(f"routing needs at least 1 iteration, got {iterations}")
    if normalize_over not in ("output_caps", "input_caps"):
        raise ConfigError(f"unknown routing normalization {normalize_over!r}")
    n, j_count, i_count, _ = u_hat.shape
    axis = 2 if normalize_over == "output_caps" else 1
    b = T.zeros((n, i_count, j_count), u_hat.dtype)
    history = []
    for _ in range(iterations):
        c = T.softmax(b, axis=axis)
        history.append(c.data)
        s = T.einsum2("nij,njie->nje", c, u_hat)
        v = squash(s, axis=-1)
        agreement = T.einsum2("njie,nje->nij", u_hat, v)
        b = T.add(b, agreement)
    return v, RoutingInfo(logits=b.data, iterations=iterations, coupling_history=history)


# ---------------------------------------------------------------------------
# dense head


@dataclass
class HeadParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def head_params(param, in_size: int, hidden: int, classes: int) -> HeadParams:
    """The head's tensors, asked of ``param(name, shape)`` as ``head.w1`` etc."""
    return HeadParams(w1=param("head.w1", (in_size, hidden)), b1=param("head.b1", (hidden,)),
                      w2=param("head.w2", (hidden, classes)), b2=param("head.b2", (classes,)))


def init_head(rng, in_size: int, hidden: int, classes: int, dtype=np.float32) -> HeadParams:
    return head_params(drawing(rng, dtype), in_size, hidden, classes)


def dense_head(x: Tensor, params: HeadParams, activation: str = "relu") -> Tensor:
    """Hidden layer + linear -> class logits [N, C]."""
    act = T.relu if activation == "relu" else T.selu
    hidden = act(T.add_bias(T.matmul(x, params.w1), params.b1))
    return T.add_bias(T.matmul(hidden, params.w2), params.b2)


# ---------------------------------------------------------------------------
# ablation building blocks


def max_pool_routing(features: Tensor, window: int = 4) -> Tensor:
    """Elementwise max over non-overlapping position windows.

    [N,T,F] -> [N, T//window, F]; a trailing remainder is dropped.
    Gradient goes to the (earliest) argmax position of each window only.
    """
    if window < 1:
        raise ContractError(f"pool window must be >= 1, got {window}")
    n, t_len, feat = features.shape
    blocks = t_len // window
    if blocks < 1:
        raise DimensionError(f"window {window} exceeds sequence length {t_len}")
    x = features.data[:, :blocks * window, :].reshape(n, blocks, window, feat)
    arg = x.argmax(axis=2)  # first maximum wins ties
    out = np.take_along_axis(x, arg[:, :, None, :], axis=2)[:, :, 0, :]

    def back(g):
        grad_blocks = np.zeros_like(x)
        np.put_along_axis(grad_blocks, arg[:, :, None, :], g[:, :, None, :], axis=2)
        grad = np.zeros(features.shape, dtype=g.dtype)
        grad[:, :blocks * window, :] = grad_blocks.reshape(n, blocks * window, feat)
        return (grad,)

    return record_op(out, (features,), back)


def conv1d_same(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """1-d convolution over positions with zero same-padding.

    [N,T,F] with kernel [w,F,K] -> [N,T,K]. The input gradient is
    skipped when ``x`` needs none (``tensor.needs_grad``).
    """
    if kernel.ndim != 3 or kernel.shape[1] != x.shape[2]:
        raise DimensionError(f"conv kernel {kernel.shape} does not match input {x.shape}")
    n, t_len, feat = x.shape
    width, _, out_ch = kernel.shape
    left = (width - 1) // 2
    padded = np.zeros((n, t_len + width - 1, feat), dtype=x.dtype)
    padded[:, left:left + t_len, :] = x.data
    windows = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)  # [N,T,F,w]
    out = np.einsum("ntfw,wfk->ntk", windows, kernel.data, optimize=True) + bias.data

    x_grad = T.needs_grad(x)

    def back(g):
        grad_k = np.einsum("ntfw,ntk->wfk", windows, g, optimize=True)
        grad_b = g.sum(axis=(0, 1))
        if not x_grad:
            return (None, grad_k, grad_b)
        grad_pad = np.zeros_like(padded)
        for d in range(width):
            grad_pad[:, d:d + t_len, :] += np.einsum(
                "ntk,fk->ntf", g, kernel.data[d], optimize=True
            )
        return (grad_pad[:, left:left + t_len, :], grad_k, grad_b)

    return record_op(out, (x, kernel, bias), back)


def cnn_feature_extractor(embedded: Tensor, kernels, biases) -> Tensor:
    """Parallel same-padded convolutions with ReLU, channel-concatenated.

    [N,T,E] -> [N,T,sum of filter counts].
    """
    outputs = [T.relu(conv1d_same(embedded, k, b)) for k, b in zip(kernels, biases)]
    return T.concat(outputs, axis=2)
