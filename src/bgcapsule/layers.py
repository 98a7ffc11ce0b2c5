"""Forward stack: embedding lookup, the GRU scan, capsules with
agreement routing, and the dense head that gives class logits.

Shapes use N for batch, T for sequence length, F for features, I/J for
capsule counts in the lower/upper layer, and D for capsule dimension.
Every op here is recorded on the active tape and passes gradient
checking; see ``gradsuite``. A GRU scans a whole sequence as one op.
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


def embedding_forward(table: Tensor, token_ids: np.ndarray) -> Tensor:
    """Gather rows of [V+1, E] by integer ids [N, T] -> [N, T, E].

    Like every op it is recorded only when the table needs a gradient
    (``tensor.needs_grad``): a frozen table is simply not watched. The
    gradient scatter-adds into the table, except row 0 (padding), which
    never receives gradient.
    """
    ids = np.asarray(token_ids)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.shape[0]:
        raise DimensionError(
            f"token ids outside table with {table.shape[0]} rows"
        )
    out = table.data[ids]

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


def run_gru(seq: Tensor, params: GruParams, reverse: bool = False,
            h_mask: Tensor | None = None) -> Tensor:
    """Scan a GRU over [N,T,F] -> [N,T,H] from h = 0, as one tape op.

    At each position, with h the previous state, x the input and
    h_in = h * mask (h itself without a mask)::

        z = sigmoid([h_in, x].w_z + b_z)        update gate
        r = sigmoid([h_in, x].w_r + b_r)        reset gate
        c = tanh([r * h_in, x].w_h + b_h)       candidate
        h' = (1 - z) * h + z * c

    With ``reverse`` the scan runs right-to-left but outputs stay at
    their original positions. ``h_mask`` (recurrent dropout, [N,H]) is
    the mask above: it reaches the gates and the candidate but not the
    state carried through the interpolation, and it gets no gradient.

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

    Shared prefix: when none of the seven inputs needs a gradient (so the
    op is not recorded), there is no ``h_mask`` and N > 1, every row
    holds the same state through the leading steps, in scan order, where
    every row's input is all zero, since each starts from h = 0 and reads
    the same bias-only projection. Those steps are scanned for row 0
    alone and its states copied to the other rows; the rest are scanned
    for all N rows. With padding in front (``text.pad_prepend``) a
    forward scan's prefix is the padding the batch has in common; a
    reverse scan meets text first and rarely has one. The result matches
    the full scan to rounding, not bitwise: a one-row GEMM may sum in
    another order than an N-row one. Training (masked, watched weights)
    and every gradient check scan all rows at every step.
    """
    if seq.ndim != 3 or seq.shape[2] + params.hidden_size != params.w_z.shape[0]:
        raise DimensionError(
            f"GRU with weights {params.w_z.shape} cannot scan a sequence of shape {seq.shape}"
        )
    n, t_len, feat = seq.shape
    hid = params.hidden_size
    dtype = seq.dtype
    weights = (params.w_z, params.w_r, params.w_h)
    inputs = (seq, *weights, params.b_z, params.b_r, params.b_h)
    w_x = np.concatenate([w.data[hid:] for w in weights], axis=1)
    u_zr = np.concatenate([w.data[:hid] for w in weights[:2]], axis=1)
    u_h = params.w_h.data[:hid]
    bias = np.concatenate([params.b_z.data, params.b_r.data, params.b_h.data])
    rows = t_len * n
    x_rows = np.ascontiguousarray(seq.data.transpose(1, 0, 2)).reshape(rows, feat)
    has_text = x_rows.any(axis=1)
    live = np.flatnonzero(has_text)
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
    shared = 0  # leading steps, in scan order, scanned for row 0 alone
    if n > 1 and mask is None and not any(T.needs_grad(x) for x in inputs):
        text_at = has_text.reshape(t_len, n).any(axis=1)[steps]
        shared = int(np.append(text_at, True).argmax())
    states = np.zeros((t_len + 1, n, hid), dtype)
    gates = np.empty((t_len, n, 3 * hid), dtype)  # z | r | c
    h_in_all = states[src:src + t_len] if mask is None else np.empty((t_len, n, hid), dtype)
    with np.errstate(over="ignore"):
        for i, t in enumerate(steps):
            k = 1 if i < shared else n
            h_prev = states[t + src, :k]
            h_in = h_prev if mask is None else np.multiply(h_prev, mask, out=h_in_all[t])
            zrc = gates[t, :k]
            pre = h_in @ u_zr
            pre += proj[t, :k, :2 * hid]
            zrc[:, :2 * hid] = 1.0 / (1.0 + np.exp(-pre))
            z, r = zrc[:, :hid], zrc[:, hid:2 * hid]
            pre = (r * h_in) @ u_h
            pre += proj[t, :k, 2 * hid:]
            c = np.tanh(pre, out=zrc[:, 2 * hid:])
            states[t + dst, :k] = (1.0 - z) * h_prev + z * c
            if i + 1 == shared:
                prefix = np.asarray(steps[:shared]) + dst
                states[prefix, 1:] = states[prefix, :1]
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

    return record_op(out, inputs, back)


# ---------------------------------------------------------------------------
# capsules


def _squash_parts(x: np.ndarray, axis: int):
    """``squash`` of ``x`` along ``axis``, and what its gradient reads."""
    q = (x * x).sum(axis=axis, keepdims=True)  # |s|^2
    safe_q = np.where(q > 0, q, 1.0)
    root = np.sqrt(safe_q)
    scale = np.where(q > 0, root / (1.0 + q), 0.0)
    return (x * scale).astype(x.dtype, copy=False), (q, root, scale)


def _squash_grad(g: np.ndarray, x: np.ndarray, parts, axis: int) -> np.ndarray:
    # d scale/d q = (1 - q) / (2 sqrt(q) (1+q)^2), chain through q = sum s^2
    q, root, scale = parts
    dscale_dq = np.where(q > 0, (1.0 - q) / (2.0 * root * (1.0 + q) ** 2), 0.0)
    inner = (g * x).sum(axis=axis, keepdims=True)
    return (g * scale + 2.0 * x * dscale_dq * inner).astype(x.dtype, copy=False)


def squash(t: Tensor, axis: int = -1) -> Tensor:
    """Norm-limiting nonlinearity: v = (|s|^2 / (1+|s|^2)) * s/|s|.

    Keeps direction, maps norms into [0, 1). Zero vectors stay zero and
    get zero gradient.
    """
    x = t.data
    axis = axis % x.ndim if x.ndim else 0
    out, parts = _squash_parts(x, axis)
    return record_op(out, (t,), lambda g: (_squash_grad(g, x, parts, axis),))


@dataclass
class DistinctPositions:
    """The positions of a batch that can differ, found from ``live`` [N,T]:
    each document's live positions, in order, plus its first dead one,
    which stands for all its dead ones. These are the document's entries;
    position 0 is always one of them, as entry 0. Documents with fewer
    than K entries, the batch's largest count, are padded with entries
    that read position 0 again and count zero.
    """

    rows: np.ndarray  # [N*K] flat row n*T + t that each entry reads
    counts: np.ndarray  # [N, K] positions each entry stands for; 0 on padding
    entry: np.ndarray  # [N, T] the entry k that stands for each position

    def expand(self, routing: "RoutingInfo", caps_per_pos: int) -> "RoutingInfo":
        """``routing`` over the entries' capsules [N, K*P, J], laid out over
        every position's capsules [N, T*P, J]."""
        n = self.entry.shape[0]
        index = (self.entry[:, :, None] * caps_per_pos + np.arange(caps_per_pos)).reshape(n, -1, 1)

        def full(a):
            return np.take_along_axis(a, index, axis=1)

        return RoutingInfo(logits=full(routing.logits),
                           coupling_history=[full(c) for c in routing.coupling_history])


def distinct_positions(live: np.ndarray) -> DistinctPositions:
    """Merge each document's dead positions ([N,T] ``live`` False) into one
    entry; see ``DistinctPositions``."""
    n, t_len = live.shape
    dead = ~live
    first_dead = dead.argmax(axis=1)  # 0 where nothing is dead, and then position 0 is live
    keep = live.copy()
    keep[np.arange(n), first_dead] = True
    entry = np.cumsum(keep, axis=1) - 1
    entry = np.where(live, entry, entry[np.arange(n), first_dead][:, None])
    docs, pos = np.nonzero(keep)
    ks = entry[docs, pos]
    width = int(ks.max()) + 1
    counts = np.zeros((n, width), np.int64)
    counts[docs, ks] = np.where(live[docs, pos], 1, t_len - live.sum(axis=1)[docs])
    rows = np.repeat(np.arange(n)[:, None] * t_len, width, axis=1)
    rows[docs, ks] = docs * t_len + pos
    return DistinctPositions(rows=rows.reshape(-1), counts=counts, entry=entry)


def primary_capsules(features: Tensor, weight: Tensor, bias: Tensor,
                     caps_per_pos: int, caps_dim: int,
                     distinct: DistinctPositions | None = None) -> Tensor:
    """Project per-position features into capsules and squash.

    [N,T,F] with weight [F, caps_per_pos*caps_dim] -> [N, T*caps_per_pos, caps_dim],
    or, given ``distinct``, the capsules of its K entries only,
    [N, K*caps_per_pos, caps_dim]. The projection (gather, GEMM, bias) is one
    op; it keeps no gathered copy, and its backward gathers the rows again
    for the weight gradient. A position's feature gradient is its entry's
    divided by the entry's count: the positions an entry stands for hold
    equal features, so each would have got that share. Padding entries
    stand for no position and pass back nothing.
    """
    n, t_len, feat = features.shape
    if weight.shape != (feat, caps_per_pos * caps_dim):
        raise ConfigError(
            f"primary capsule projection {weight.shape} does not map {feat} features "
            f"to {caps_per_pos}x{caps_dim} capsules"
        )
    flat = features.data.reshape(n * t_len, feat)
    projected = (flat if distinct is None else flat[distinct.rows]) @ weight.data
    projected += bias.data
    features_grad = T.needs_grad(features)

    def back(g):
        g = g.reshape(projected.shape)
        rows = flat if distinct is None else flat[distinct.rows]
        grad_w = rows.T @ g
        grad_b = g.sum(axis=0)
        if not features_grad:
            return (None, grad_w, grad_b)
        if distinct is None:
            return ((g @ weight.data.T).reshape(features.shape), grad_w, grad_b)
        share = g / np.maximum(distinct.counts, 1).astype(g.dtype).reshape(-1, 1)
        entries = distinct.entry + np.arange(n)[:, None] * distinct.counts.shape[1]
        grad_f = (share @ weight.data.T)[entries.reshape(-1)]
        return (grad_f.reshape(features.shape), grad_w, grad_b)

    caps = record_op(projected.reshape(n, -1, caps_dim), (features, weight, bias), back)
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
    coupling_history: list  # one [N, I, J] array per iteration

    @property
    def couplings(self) -> np.ndarray:
        """The last iteration's couplings [N, I, J]."""
        return self.coupling_history[-1]


def dynamic_routing(u_hat: Tensor, iterations: int, normalize_over: str = "output_caps",
                    weights: np.ndarray | None = None) -> tuple[Tensor, RoutingInfo]:
    """Agreement routing over prediction vectors [N, J, I, D'], as one op.

    Logits start at zero; each round takes the coupling softmax, forms
    the weighted vote sum per upper capsule, squashes it, and adds the
    vote/output dot products back into the logits. ``normalize_over``
    picks the softmax axis: couplings of one input capsule over upper
    capsules ("output_caps", default) or of one upper capsule over
    inputs ("input_caps").

    ``weights`` [N, I], if given, is how many identical input capsules
    each one stands for: it scales a capsule's coupled vote in the vote
    sum and, for "input_caps", its term in the softmax denominator, so
    routing I distinct capsules with their counts gives what routing
    every copy would. A zero-weight capsule changes no output, gets no
    gradient, and should repeat a weighted capsule of its row, so that
    it shifts no softmax maximum.

    Logits are kept as [N, J, I], so the vote sum and the agreements are
    batched ``matmul`` calls on ``u_hat``; ``RoutingInfo`` holds them as
    [N, I, J]. The backward runs the iterations in reverse by hand. It
    reads ``u_hat`` where it is held and saves, per iteration, the
    couplings (also the ``coupling_history``) and the [N, J, D'] vote
    sums and outputs; when ``u_hat`` needs no gradient
    (``tensor.needs_grad``) nothing is saved for it.
    """
    if iterations < 1:
        raise ContractError(f"routing needs at least 1 iteration, got {iterations}")
    if normalize_over not in ("output_caps", "input_caps"):
        raise ConfigError(f"unknown routing normalization {normalize_over!r}")
    u = u_hat.data
    n, j_count, i_count, _ = u.shape
    over_inputs = normalize_over == "input_caps"
    axis = 2 if over_inputs else 1
    w = None if weights is None else np.asarray(weights, u.dtype).reshape(n, 1, i_count)
    grad = T.needs_grad(u_hat)
    b = np.zeros((n, j_count, i_count), u.dtype)
    history, saved = [], []
    for _ in range(iterations):
        e = np.exp(b - b.max(axis=axis, keepdims=True))
        c = e / (e if w is None or not over_inputs else e * w).sum(axis=axis, keepdims=True)
        cw = c if w is None else c * w
        s = np.matmul(cw[:, :, None, :], u)[:, :, 0, :]
        v, parts = _squash_parts(s, 2)
        b = b + np.matmul(u, v[:, :, :, None])[:, :, :, 0]
        history.append(c.transpose(0, 2, 1))
        if grad:
            saved.append((c, cw, s, parts, v))
    info = RoutingInfo(logits=b.transpose(0, 2, 1), coupling_history=history)

    def back(g):
        db = np.zeros_like(b)  # d(logits entering the iteration after this one)
        dv = g
        left, right = [], []  # du = sum over pairs of left (x) right
        for r in range(iterations - 1, -1, -1):
            c, cw, s, parts, v = saved[r]
            if r < iterations - 1:  # the last agreement reaches only the returned logits
                dv = np.matmul(db[:, :, None, :], u)[:, :, 0, :]
                left.append(db)
                right.append(v)
            ds = _squash_grad(dv, s, parts, 2)
            dcw = np.matmul(u, ds[:, :, :, None])[:, :, :, 0]
            left.append(cw)
            right.append(ds)
            # softmax adjoint with the counts folded in, on either axis
            dot = (cw if over_inputs else c) * dcw
            db = db + cw * (dcw - dot.sum(axis=axis, keepdims=True))
        du = np.matmul(np.stack(left, axis=3), np.stack(right, axis=2))
        return (du,)

    return record_op(v, (u_hat,), back if grad else lambda g: (None,)), info


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


def dense_head(x: Tensor, params: HeadParams, activation: str = "relu") -> Tensor:
    """Hidden layer + linear -> class logits [N, C]."""
    act = {"relu": T.relu, "selu": T.selu}.get(activation)
    if act is None:
        raise ConfigError(f"unknown head activation {activation!r}")
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


def _pad_rows(x: np.ndarray, left: int, right: int):
    """[N,T,F] zero-padded by ``left`` and ``right`` rows per document and
    flattened, [N*(left+T+right), F], and which padded rows are nonzero,
    [N, left+T+right]."""
    n, t_len, feat = x.shape
    padded = np.zeros((n, left + t_len + right, feat), dtype=x.dtype)
    padded[:, left:left + t_len, :] = x
    row_live = np.zeros(padded.shape[:2], dtype=bool)
    row_live[:, left:left + t_len] = x.any(axis=2)
    return padded.reshape(-1, feat), row_live


def _windows_live(row_live: np.ndarray, start: int, width: int, t_len: int) -> np.ndarray:
    """[N,T]: whether window t, padded rows start+t .. start+t+width-1, holds a nonzero row."""
    rows = row_live[:, start:start + t_len + width - 1]
    return np.lib.stride_tricks.sliding_window_view(rows, width, axis=1).any(axis=2)


def conv1d_same(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """1-d convolution over positions with zero same-padding.

    [N,T,F] with kernel [w,F,K] -> [N,T,K]. ``x`` is zero-padded by the
    kernel's own margins; ``cnn_feature_extractor`` pads once for several
    widths and runs the same op on that one buffer.
    """
    width = kernel.shape[0]
    left = (width - 1) // 2
    padded, row_live = _pad_rows(x.data, left, width - 1 - left)
    return _conv_padded(x, padded, row_live, 0, kernel, bias)


def _conv_padded(x: Tensor, padded: np.ndarray, row_live: np.ndarray, start: int,
                 kernel: Tensor, bias: Tensor) -> Tensor:
    """``conv1d_same`` of ``x`` read from ``_pad_rows(x)``, in which the
    kernel's window for position t starts at padded row start+t.

    Forward: a window is live when any of its w rows is nonzero; the
    live windows, L of them, are gathered into one [L, w*F] im2col matrix
    and multiplied by the kernel reshaped to [w*F, K] in one GEMM. Every
    other output row is the bias alone, which is what the GEMM gives an
    all-zero window. There is no threshold on the share of padding,
    unlike ``run_gru``: im2col must copy every window it multiplies
    anyway, and the gather is that copy, so skipping a window never
    costs more than keeping it.

    Backward: the im2col matrix is not kept. The kernel gradient reads
    the L live windows only, since an all-zero window adds nothing to
    it: for each offset d, the [L,F] rows at d of the live windows are
    gathered again from the padded buffer and multiplied by g of those
    windows. The bias gradient sums g over every row, accumulated in
    float64. The input gradient takes ``g . K^T`` from every window,
    live or not: a window that sees only padding still moves the rows
    it covers. It is skipped when ``x`` needs none (``tensor.needs_grad``).
    """
    if kernel.ndim != 3 or kernel.shape[1] != x.shape[2]:
        raise DimensionError(f"conv kernel {kernel.shape} does not match input {x.shape}")
    n, t_len, feat = x.shape
    width, _, out_ch = kernel.shape
    left = (width - 1) // 2
    span = row_live.shape[1]  # padded rows per document
    live = np.flatnonzero(_windows_live(row_live, start, width, t_len))  # window i*T + t
    first = live + live // t_len * (span - t_len) + start  # its first padded row

    cols = padded[first[:, None] + np.arange(width)].reshape(len(live), width * feat)
    live_out = cols @ kernel.data.reshape(width * feat, out_ch)
    live_out += bias.data
    del cols  # before the output is allocated; the backward gathers again
    out = np.empty((n * t_len, out_ch), dtype=live_out.dtype)
    out[:] = bias.data  # what the GEMM gives an all-zero window
    out[live] = live_out
    out = out.reshape(n, t_len, out_ch)

    x_grad = T.needs_grad(x)

    def back(g):
        g_rows = g.reshape(n * t_len, out_ch)
        g_live = g_rows[live]
        grad_k = np.stack([padded[first + d].T @ g_live for d in range(width)])
        grad_b = g_rows.sum(axis=0, dtype=np.float64).astype(g.dtype)
        if not x_grad:
            return (None, grad_k, grad_b)
        grad_pad = np.zeros((n, t_len + width - 1, feat), dtype=g.dtype)
        for d in range(width):
            grad_pad[:, d:d + t_len, :] += (g_rows @ kernel.data[d].T).reshape(n, t_len, feat)
        return (grad_pad[:, left:left + t_len, :], grad_k, grad_b)

    return record_op(out, (x, kernel, bias), back)


def cnn_feature_extractor(embedded: Tensor, kernels, biases) -> tuple[Tensor, np.ndarray]:
    """Parallel same-padded convolutions with ReLU, channel-concatenated,
    and which positions are live.

    [N,T,E] -> [N,T,sum of filter counts], and live [N,T] bool. ``embedded``
    is zero-padded once, by the widest margins any kernel needs, and its
    nonzero rows are found once; every width's convolution gathers its
    windows from that one buffer, which its backward keeps. A position is
    live when a window of some width there covers a nonzero row; at a dead
    one every convolution gives its bias alone, so every dead position of
    the batch has the same features.
    """
    widths = [k.shape[0] for k in kernels]
    left = max((w - 1) // 2 for w in widths)
    right = max(w // 2 for w in widths)
    padded, row_live = _pad_rows(embedded.data, left, right)
    outputs = [T.relu(_conv_padded(embedded, padded, row_live, left - (k.shape[0] - 1) // 2, k, b))
               for k, b in zip(kernels, biases)]
    live = _windows_live(row_live, 0, left + right + 1, embedded.shape[1])
    return T.concat(outputs, axis=2), live
