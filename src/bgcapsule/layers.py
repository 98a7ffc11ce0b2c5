"""Forward stack: embedding lookup, the GRU scan, capsules with
agreement routing, and the dense head that gives class logits.

Shapes use N for batch, T for sequence length, F for features, I/J for
capsule counts in the lower/upper layer, and D for capsule dimension.
Every op here is recorded on the active tape and passes the
finite-difference checks of ``tests/gradsuite.py``. A GRU scans a whole
sequence as one op, and each convolution width is one op over the
batch's distinct positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor, record_op


def glorot_uniform(rng, shape, dtype=np.float32) -> Tensor:
    """Fan-based uniform init; fans are the trailing two extents."""
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
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
    """Gate and candidate weights over the [h, x] concatenation.

    ``padding`` is ``run_gru``'s memo of the states over all-padding
    input: (dtype, copies of the arrays they came from, states).
    """

    w_z: Tensor  # (hidden+input, hidden)
    w_r: Tensor
    w_h: Tensor
    b_z: Tensor  # (hidden,)
    b_r: Tensor
    b_h: Tensor
    padding: tuple | None = field(default=None, repr=False, compare=False)

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
            mask: np.ndarray | None = None) -> Tensor:
    """Scan a GRU over [N,T,F] -> [N,T,H] from h = 0, as one tape op.

    At each position, with h the previous state, x the input and
    h_in = h * mask (h itself without a mask)::

        z = sigmoid([h_in, x].w_z + b_z)        update gate
        r = sigmoid([h_in, x].w_r + b_r)        reset gate
        c = tanh([r * h_in, x].w_h + b_h)       candidate
        h' = (1 - z) * h + z * c

    With ``reverse`` the scan runs right-to-left but outputs stay at
    their original positions. ``mask`` (recurrent dropout, an [N,H]
    array, not an op input) is the mask above: it reaches the gates and
    the candidate but not the state carried through the interpolation.

    Forward: each weight splits into h-rows ``U`` and x-rows ``W``.
    sigmoid(a) is computed as (1 + tanh(a/2)) / 2, which cannot
    overflow; the 1/2 is folded once per call into the z|r columns of
    ``W``, ``U`` and the biases. One [N,T] reduction of ``seq`` finds
    the L rows with text (any nonzero input). Before the loop they are
    gathered from ``seq`` in time-major order and projected by one
    [L,F]x[F,3H] GEMM over ``W_z|W_r|W_h`` plus the biases, then
    scattered into an [S,N,3H] buffer over the S steps where some row
    has text. A padding row in that buffer holds the biases, and a step
    without text reads the biases as one broadcast row: both are what
    the GEMM gives an all-zero row. Each step runs one
    ``h_in.[U_z|U_r]`` and one ``(r*h_in).U_h`` GEMM, and does its
    pointwise work in place on [N,2H] and [N,H] arrays allocated once
    per call, so a step allocates nothing. The output is the state
    buffer seen as [N,T,H], a transposed view, not a copy. Saved for
    the backward, all time-major: the L input rows (for dW_x), the gate
    outputs z|r|c as [T,N,3H] (each step copies its own in; kept only
    when the op is recorded), the states as [T+1,N,H] (position t reads
    its previous state from one end and writes its own to the other;
    the output views them too), and the masked states h_in as [T,N,H]
    when there is a mask.

    Backward: BPTT runs the steps in reverse scan order on [N,H] and
    [N,2H] arrays allocated once per backward. Each step copies its z,
    r and c in, computes its pointwise factors in place, runs
    its two GEMMs on contiguous copies of ``U_h^T`` and ``[U_z|U_r]^T``,
    and copies the gradients of its gate pre-activations into one
    [T,N,3H] buffer; only dh is carried between steps. Saved buffers are
    only read, so a backward can be replayed. dW, db and d(seq) then
    come from a few GEMMs over that buffer flattened to [T*N,3H]; dW_x
    reads it at the L rows with text only, and d(seq) is skipped when
    ``seq`` needs no gradient (``tensor.needs_grad``), as for a frozen
    embedding.

    Padding trajectory: when none of the seven inputs needs a gradient
    (so the op is not recorded) and there is no ``mask``, every row
    holds the same state through the leading steps, in scan order, where
    every row's input is all zero: each starts from h = 0 and reads the
    bias-only projection. Those states depend only on the h-rows of the
    weights and on the biases, so they are kept in ``params.padding``
    with copies of those arrays and the dtype. A call whose arrays and
    dtype equal the kept ones (``np.array_equal``) and whose prefix is no
    longer than the kept trajectory broadcasts its states to every row
    and scans the rest; any other call first scans the trajectory to the
    full T for one row with the same step code. Values are compared, not
    identities, so weights changed in place (an optimizer step, restored
    state, a gradient check's perturbation) are always seen. With
    padding in front (``text.pad_prepend``) a forward scan's prefix is
    the padding its batch has in common, and a single text scans only its
    own tokens; a reverse scan meets text first and rarely has one. The
    result matches the full scan to rounding, not bitwise: a one-row GEMM
    may sum in another order than an N-row one. A recorded scan (training,
    or the taped pass of a gradient check) scans all rows at every step.
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
    # sigmoid(a) = (1 + tanh(a/2)) / 2: the 1/2 is folded into the z|r columns
    half = np.repeat(np.array([0.5, 0.5, 1.0], dtype), hid)
    raw_bias = np.concatenate([params.b_z.data, params.b_r.data, params.b_h.data])
    bias = raw_bias * half
    rows = t_len * n
    text = seq.data.any(axis=2).T  # [T,N]: which rows hold text, time-major
    text_at = text.any(axis=1)
    at, row = np.nonzero(text)  # the rows with text, time-major
    x_rows = seq.data[row, at]  # all dW_x needs
    proj = x_rows @ (w_x * half)
    proj += bias
    bias_row = bias[None]  # what the GEMM gives an all-zero (padding) row
    slot = np.cumsum(text_at) - 1
    text_rows = np.full((np.count_nonzero(text_at), n, 3 * hid), bias, proj.dtype)
    text_rows[slot[at], row] = proj
    del proj
    # the steps where some row has text; any other step reads bias_row
    proj_at = dict(zip(np.flatnonzero(text_at).tolist(), text_rows))
    seq_grad = T.needs_grad(seq)

    recorded = any(T.needs_grad(x) for x in inputs)
    # position t reads h_prev from states[t + src] and writes h to states[t + dst]
    src, dst = (1, 0) if reverse else (0, 1)
    steps = range(t_len - 1, -1, -1) if reverse else range(t_len)
    states = np.zeros((t_len + 1, n, hid), dtype)
    gates = np.empty((t_len, n, 3 * hid), dtype) if recorded else None  # z | r | c
    h_in_all = states[src:src + t_len] if mask is None else np.empty((t_len, n, hid), dtype)
    u_zr_half = u_zr * 0.5
    zr_buf, c_buf, tmp_buf = (np.empty((n, w), dtype) for w in (2 * hid, hid, hid))

    def step(h_prev, h_in, proj_t, h_out, zr, c, tmp):
        """One step for the rows of ``h_prev``; leaves z|r in ``zr`` and c in ``c``."""
        np.matmul(h_in, u_zr_half, out=zr)
        zr += proj_t[:, :2 * hid]
        np.tanh(zr, out=zr)
        zr *= 0.5
        zr += 0.5
        z, r = zr[:, :hid], zr[:, hid:]
        np.multiply(r, h_in, out=tmp)
        np.matmul(tmp, u_h, out=c)
        c += proj_t[:, 2 * hid:]
        np.tanh(c, out=c)
        # h' = (1 - z) * h + z * c = h + z * (c - h)
        np.subtract(c, h_prev, out=tmp)
        tmp *= z
        np.add(h_prev, tmp, out=h_out)

    start = 0  # leading steps, in scan order, whose states are the padding trajectory
    if mask is None and not recorded:
        start = int(np.append(text_at[steps], True).argmax())
    if start:
        key = (u_zr, u_h, raw_bias)
        memo = params.padding
        if (memo is None or memo[0] != dtype or len(memo[2]) <= start
                or not all(a.dtype == b.dtype and np.array_equal(a, b)
                           for a, b in zip(memo[1], key))):
            trajectory = np.zeros((t_len + 1, 1, hid), dtype)
            for i in range(t_len):
                step(trajectory[i], trajectory[i], bias_row, trajectory[i + 1],
                     zr_buf[:1], c_buf[:1], tmp_buf[:1])
            memo = params.padding = (dtype, (u_zr, u_h.copy(), raw_bias), trajectory)
        states[np.asarray(steps[:start]) + dst] = memo[2][1:start + 1]
    for t in steps[start:]:
        h_prev = states[t + src]
        h_in = h_prev if mask is None else np.multiply(h_prev, mask, out=h_in_all[t])
        step(h_prev, h_in, proj_at.get(t, bias_row), states[t + dst], zr_buf, c_buf, tmp_buf)
        if recorded:
            gates[t, :, :2 * hid] = zr_buf
            gates[t, :, 2 * hid:] = c_buf
    out = states[dst:dst + t_len].transpose(1, 0, 2)

    def back(g):
        u_h_t, u_zr_t = np.ascontiguousarray(u_h.T), np.ascontiguousarray(u_zr.T)
        d_pre = np.empty((t_len, n, 3 * hid), dtype)  # d(pre-activation) of z | r | c
        d_zr = np.empty((n, 2 * hid), dtype)
        z, r, c, q, dh, d_c, d_rh, dh_in, a = (np.empty((n, hid), dtype) for _ in range(9))
        dh[:] = 0.0
        for t in reversed(steps):
            z[:], r[:], c[:] = gates[t, :, :hid], gates[t, :, hid:2 * hid], gates[t, :, 2 * hid:]
            h_in = h_in_all[t]
            dh += g[:, t]
            # d(c pre) = q * (1 - c^2), with q = dh * z
            np.multiply(dh, z, out=q)
            np.multiply(c, c, out=a)
            np.subtract(1.0, a, out=a)
            np.multiply(a, q, out=d_c)
            np.matmul(d_c, u_h_t, out=d_rh)
            # dh becomes dh * (1 - z) = dh - q, the part carried through the interpolation
            dh -= q
            # d(z pre) = dh * (c - h_prev) * z * (1 - z)
            np.subtract(c, states[t + src], out=a)
            a *= dh
            np.multiply(a, z, out=d_zr[:, :hid])
            # d(r pre) = d_rh * h_in * r * (1 - r)
            np.subtract(1.0, r, out=a)
            a *= r
            a *= h_in
            np.multiply(a, d_rh, out=d_zr[:, hid:])
            np.matmul(d_zr, u_zr_t, out=dh_in)
            np.multiply(d_rh, r, out=a)
            dh_in += a
            if mask is not None:
                dh_in *= mask
            dh += dh_in
            d_pre[t, :, :2 * hid] = d_zr
            d_pre[t, :, 2 * hid:] = d_c

        flat = d_pre.reshape(rows, 3 * hid)
        rh = gates[:, :, hid:2 * hid] * h_in_all
        d_u = np.concatenate([
            h_in_all.reshape(rows, hid).T @ flat[:, :2 * hid],
            rh.reshape(rows, hid).T @ flat[:, 2 * hid:],
        ], axis=1)
        d_wx = x_rows.T @ d_pre[at, row]
        d_w = [np.concatenate([d_u[:, k * hid:(k + 1) * hid], d_wx[:, k * hid:(k + 1) * hid]])
               for k in range(3)]
        d_b = np.split(flat.sum(axis=0), 3)
        d_seq = (flat @ w_x.T).reshape(t_len, n, feat).transpose(1, 0, 2) if seq_grad else None
        return (d_seq, *d_w, *d_b)

    return record_op(out, inputs, back)


# ---------------------------------------------------------------------------
# capsules


def _squash_parts(x: np.ndarray):
    """``squash`` of ``x`` along its last axis, and what its gradient reads."""
    q = (x * x).sum(axis=-1, keepdims=True)  # |s|^2
    safe_q = np.where(q > 0, q, 1.0)
    root = np.sqrt(safe_q)
    scale = np.where(q > 0, root / (1.0 + q), 0.0)
    return (x * scale).astype(x.dtype, copy=False), (q, root, scale)


def _squash_grad(g: np.ndarray, x: np.ndarray, parts) -> np.ndarray:
    # d scale/d q = (1 - q) / (2 sqrt(q) (1+q)^2), chain through q = sum s^2
    q, root, scale = parts
    dscale_dq = np.where(q > 0, (1.0 - q) / (2.0 * root * (1.0 + q) ** 2), 0.0)
    inner = (g * x).sum(axis=-1, keepdims=True)
    return (g * scale + 2.0 * x * dscale_dq * inner).astype(x.dtype, copy=False)


def squash(t: Tensor) -> Tensor:
    """Norm-limiting nonlinearity on the last axis: v = (|s|^2 / (1+|s|^2)) * s/|s|.

    Keeps direction, maps norms into [0, 1). Zero vectors stay zero and
    get zero gradient.
    """
    x = t.data
    out, parts = _squash_parts(x)
    return record_op(out, (t,), lambda g: (_squash_grad(g, x, parts),))


@dataclass
class DistinctPositions:
    """The positions of a batch that can differ, found from ``live`` [N,T]:
    each document's live positions, in order, plus its first dead one,
    which stands for all its dead ones. These are the document's entries;
    position 0 is always one of them, as entry 0. Documents with fewer
    than K entries, the batch's largest count, are padded with entries
    that read position 0 again and count zero.

    ``cnn_feature_extractor`` computes its features over this layout,
    [N,K,F], and ``CapsuleRouting`` projects, votes and routes them as
    they are. An entry's gradient is then the sum of what the positions
    it stands for would get; a padding entry gets none, as
    ``dynamic_routing`` gives a zero-weight capsule. With every position
    live each position is its own entry, in order.
    """

    rows: np.ndarray  # [N*K] flat row n*T + t that each entry reads
    counts: np.ndarray  # [N, K] positions each entry stands for; 0 on padding
    entry: np.ndarray  # [N, T] the entry k that stands for each position

    @property
    def entry_rows(self) -> np.ndarray:
        """[N*T] the flat entry row n*K + k that stands for each position."""
        n, k = self.counts.shape
        return (self.entry + np.arange(n)[:, None] * k).reshape(-1)

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
                     caps_per_pos: int, caps_dim: int) -> Tensor:
    """Project features into capsules, row by row, and squash.

    [N,R,F] with weight [F, caps_per_pos*caps_dim] -> [N, R*caps_per_pos, caps_dim],
    where the R rows are every position, or the entries of a
    ``DistinctPositions``, whose capsules routing then weighs by count.
    The projection (GEMM and bias) is one op.
    """
    n, rows, feat = features.shape
    if weight.shape != (feat, caps_per_pos * caps_dim):
        raise ConfigError(
            f"primary capsule projection {weight.shape} does not map {feat} features "
            f"to {caps_per_pos}x{caps_dim} capsules"
        )
    flat = features.data.reshape(n * rows, feat)
    projected = flat @ weight.data
    projected += bias.data
    features_grad = T.needs_grad(features)

    def back(g):
        g = g.reshape(projected.shape)
        grad_w = flat.T @ g
        grad_b = g.sum(axis=0)
        grad_f = (g @ weight.data.T).reshape(features.shape) if features_grad else None
        return (grad_f, grad_w, grad_b)

    caps = record_op(projected.reshape(n, -1, caps_dim), (features, weight, bias), back)
    return squash(caps)


def predict_vectors(u: Tensor, weights: Tensor) -> Tensor:
    """Votes u_hat[j|i] = W_j u_i [N, J, I, D'] of capsules u [N, I, D], each
    upper capsule's ``weights`` [J, D, D'] shared by every input capsule,
    as one recorded op whose forward and two adjoints are one einsum each."""
    if u.ndim != 3:
        raise DimensionError(f"capsules {u.shape} are not [N, I, D]")
    if weights.ndim != 3 or weights.shape[1] != u.shape[2]:
        raise DimensionError(f"weights {weights.shape} are not [J, D, D'] for capsules {u.shape}")
    ud, wd = u.data, weights.data

    def back(g):
        return (np.einsum("njie,jde->nid", g, wd, optimize=True),
                np.einsum("nid,njie->jde", ud, g, optimize=True))

    return record_op(np.einsum("nid,jde->njie", ud, wd, optimize=True), (u, weights), back)


@dataclass
class RoutingInfo:
    """Final logits plus the couplings of every iteration."""

    logits: np.ndarray  # [N, I, J]
    coupling_history: list  # one [N, I, J] array per iteration


def dynamic_routing(u_hat: Tensor, iterations: int,
                    weights: np.ndarray | None = None) -> tuple[Tensor, RoutingInfo]:
    """Agreement routing over prediction vectors [N, J, I, D'], as one op.

    Logits start at zero; each round takes the couplings, each input
    capsule's softmax over the upper capsules, forms the weighted vote
    sum per upper capsule, squashes it, and adds the vote/output dot
    products back into the logits.

    ``weights`` [N, I], if given, counts the identical input capsules each
    one stands for and scales its coupled vote, so routing I distinct
    capsules with their counts gives what routing every copy would. A
    zero-weight capsule changes no output and gets no gradient.

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
    u = u_hat.data
    n, j_count, i_count, _ = u.shape
    w = None if weights is None else np.asarray(weights, u.dtype).reshape(n, 1, i_count)
    grad = T.needs_grad(u_hat)
    b = np.zeros((n, j_count, i_count), u.dtype)
    history, saved = [], []
    for _ in range(iterations):
        e = np.exp(b - b.max(axis=1, keepdims=True))
        c = e / e.sum(axis=1, keepdims=True)
        cw = c if w is None else c * w
        s = np.matmul(cw[:, :, None, :], u)[:, :, 0, :]
        v, parts = _squash_parts(s)
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
            ds = _squash_grad(dv, s, parts)
            dcw = np.matmul(u, ds[:, :, :, None])[:, :, :, 0]
            left.append(cw)
            right.append(ds)
            # softmax adjoint with the counts folded in
            db = db + cw * (dcw - (c * dcw).sum(axis=1, keepdims=True))
        du = np.matmul(np.stack(left, axis=3), np.stack(right, axis=2))
        return (du,)

    return record_op(v, (u_hat,), back), info


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


def dense_head(x: Tensor, params: HeadParams) -> Tensor:
    """ReLU hidden layer + linear -> class logits [N, C]."""
    hidden = T.relu(T.add_bias(T.matmul(x, params.w1), params.b1))
    return T.add_bias(T.matmul(hidden, params.w2), params.b2)


# ---------------------------------------------------------------------------
# ablation building blocks


def max_pool_routing(features: Tensor, window: int) -> Tensor:
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


def _conv_padded(x: Tensor, padded: np.ndarray, row_live: np.ndarray, start: int,
                 kernel: Tensor, bias: Tensor, layout: DistinctPositions) -> Tensor:
    """The 1-d convolution of ``x`` with zero same-padding, read from
    ``_pad_rows(x)``, in which the kernel's window for position t starts
    at padded row start+t, and written over the entries of ``layout``:
    [N,T,F] with kernel [w,F,C] -> [N,K,C], entry k of document n holding
    the output at the position it reads. Position t's window covers rows
    t - (w-1)//2 .. t + w//2 of ``x``.

    Forward: a window is live when any of its w rows is nonzero; the
    live windows, L of them, are gathered into one [L, w*F] im2col matrix
    and multiplied by the kernel reshaped to [w*F, C] in one GEMM. The
    position of a live window must be its own entry, as in the layout
    ``cnn_feature_extractor`` builds from every width's windows. The
    results are scattered to the entries that read them, in a buffer
    pre-filled with the bias, which is what the GEMM gives an all-zero
    window.

    Backward: an entry's gradient is the sum over the positions it stands
    for, and a padding entry's is zero (see ``DistinctPositions``). The
    im2col matrix is not kept. The kernel gradient reads the L live
    windows only, since an all-zero window adds nothing to it: for each
    offset d, the [L,F] rows at d of the live windows are gathered again
    from the padded buffer and multiplied by their entries' gradient. The
    bias gradient sums the entries' gradient, accumulated in float64. The
    input gradient gives each position its entry's share, gradient /
    count: for each offset d, ``share . kernel[d]^T`` is taken over the
    entries and gathered to the positions. Every window passes it back,
    live or not, since a window that sees only padding still moves the
    rows it covers. It is skipped when ``x`` needs none
    (``tensor.needs_grad``).
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
    window = np.full(n * t_len, -1)
    window[live] = np.arange(len(live))
    reads = window[layout.rows]  # the live window each entry reads, or -1
    hit = np.flatnonzero(reads >= 0)
    out = np.empty((len(layout.rows), out_ch), dtype=live_out.dtype)
    out[:] = bias.data  # what the GEMM gives an all-zero window
    out[hit] = live_out[reads[hit]]
    out = out.reshape(n, -1, out_ch)
    to_entry = layout.entry_rows
    x_grad = T.needs_grad(x)

    def back(g):
        g_rows = g.reshape(-1, out_ch)
        g_live = g_rows[to_entry[live]]
        grad_k = np.stack([padded[first + d].T @ g_live for d in range(width)])
        grad_b = g_rows.sum(axis=0, dtype=np.float64).astype(g.dtype)
        if not x_grad:
            return (None, grad_k, grad_b)
        share = g_rows / np.maximum(layout.counts, 1).reshape(-1, 1).astype(g.dtype)
        grad_pad = np.zeros((n, t_len + width - 1, feat), dtype=g.dtype)
        for d in range(width):
            grad_pad[:, d:d + t_len, :] += (share @ kernel.data[d].T)[to_entry].reshape(
                n, t_len, feat)
        return (grad_pad[:, left:left + t_len, :], grad_k, grad_b)

    return record_op(out, (x, kernel, bias), back)


def cnn_feature_extractor(embedded: Tensor, kernels, biases) -> tuple[Tensor, DistinctPositions]:
    """Parallel same-padded convolutions with ReLU, channel-concatenated,
    over the batch's distinct positions.

    [N,T,E] -> [N,K,sum of filter counts] over the entries of
    ``distinct_positions(live)``, which it also returns. A position is
    live when a window of some width there covers a nonzero row; at a
    dead one every convolution gives its bias alone, so every dead
    position of a document has the same features and one entry stands
    for them all. Padding entries repeat their document's entry 0.
    ``embedded`` is zero-padded once, by the widest margins any kernel
    needs, and its nonzero rows are found once; every width's
    convolution gathers its windows from that one buffer, which its
    backward keeps.
    """
    widths = [k.shape[0] for k in kernels]
    left = max((w - 1) // 2 for w in widths)
    right = max(w // 2 for w in widths)
    padded, row_live = _pad_rows(embedded.data, left, right)
    distinct = distinct_positions(_windows_live(row_live, 0, left + right + 1, embedded.shape[1]))
    outputs = [T.relu(_conv_padded(embedded, padded, row_live, left - (k.shape[0] - 1) // 2,
                                   k, b, distinct))
               for k, b in zip(kernels, biases)]
    return T.concat(outputs, axis=2), distinct
