"""Independent reference implementations used as test oracles, and the
finite-difference gradient check.

Everything here but ``routing_taped``, ``conv_taped`` and ``grad_check``
is deliberately written straight-line, without touching the package's
tape or layer code, so the tests compare two separate routes to the
same numbers. ``routing_taped`` composes agreement routing from the
tape's own ops and a test-local contraction op, so the fused
``layers.dynamic_routing`` and its hand-written backward are checked
against what the tape derives op by op. ``conv_taped`` does the same
for the CNN's convolution, which the model runs only inside
``layers.cnn_feature_extractor``.

``grad_check`` compares a tape gradient with ``finite_difference``, the
one central-difference loop of the tests; ``gradsuite.py`` runs it on
every op. ``gru_scan`` and ``complex_step`` give ``layers.run_gru``'s
output and every gradient without the tape: the scan runs in plain
numpy, and complex-step differentiation has no subtraction to cancel,
so its gradients are exact to rounding and can be compared at 1e-12.
"""

import math
from dataclasses import dataclass

import numpy as np

from bgcapsule import layers as L
from bgcapsule import tensor as T
from bgcapsule.errors import ContractError


def finite_difference(f, x, step=1e-5):
    """Central-difference gradient of a scalar function ``f(x)`` of a float64
    ndarray ``x``, else ``ContractError``.

    Each element of ``x`` is perturbed in place and restored bitwise, also
    when ``f`` raises, so ``f`` may ignore its argument and read ``x`` where
    it is held, such as a model's weight.
    """
    if x.dtype != np.float64:
        raise ContractError(f"finite differences need a float64 array, got {x.dtype}")
    grad = np.empty_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        try:
            x[i] = orig + step
            up = float(f(x))
            x[i] = orig - step
            down = float(f(x))
        finally:
            x[i] = orig
        grad[i] = (up - down) / (2.0 * step)
    return grad


@dataclass
class GradCheckReport:
    """Comparison of analytic vs central-difference gradients.

    Per element the error is min(absolute, relative) difference, so a
    check passes where either measure is small; ``max_err`` is the worst
    element.
    """

    name: str
    max_abs_err: float
    max_rel_err: float
    max_err: float
    tol: float
    passed: bool

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"op={self.name} err={self.max_err:.3e} abs={self.max_abs_err:.3e} rel={self.max_rel_err:.3e} {status}"


def error_stats(analytic, numeric):
    """(max absolute, max relative, max of the per-element minimum) error."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.size == 0:
        return 0.0, 0.0, 0.0
    abs_err = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    rel_err = np.where(denom > 0, abs_err / np.where(denom > 0, denom, 1.0), 0.0)
    return float(abs_err.max()), float(rel_err.max()), float(np.minimum(abs_err, rel_err).max())


def grad_check(f, x, step=1e-5, tol=1e-4, name=""):
    """Check d f(x) / d x of a float64 Tensor ``x`` against ``finite_difference``.

    ``f`` must be deterministic and return a scalar Tensor; like
    ``finite_difference`` it may read ``x`` where it is held.
    """
    with T.Tape() as tape:
        tape.watch(x)
        loss = f(x)
        if loss.shape != ():
            raise ContractError("grad_check target must return a scalar")
        tape.backward(loss)
        analytic = tape.grad(x).data
    numeric = finite_difference(lambda _: f(x).item(), x.data, step)
    max_abs, max_rel, max_err = error_stats(analytic, numeric)
    return GradCheckReport(name=name or getattr(f, "__name__", "f"), max_abs_err=max_abs,
                           max_rel_err=max_rel, max_err=max_err, tol=tol, passed=max_err < tol)


def complex_step(f, x, step=1e-30):
    """Gradient of a real-analytic scalar ``f`` at real ``x`` by complex step:
    Im f(x + i*step*e_k) / step for each element k."""
    x = np.asarray(x, dtype=np.complex128)
    grad = np.empty(x.shape)
    for k in np.ndindex(x.shape):
        probe = x.copy()
        probe[k] += 1j * step
        grad[k] = f(probe).imag / step
    return grad


def gru_scan(seq, w_z, w_r, w_h, b_z, b_r, b_h, reverse=False, mask=None):
    """GRU over [N,T,F] from h = 0, one position at a time -> [N,T,H].

    Weights act on the [h, x] concatenation; ``mask`` multiplies the state
    seen by the gates and the candidate. Every argument is promoted to one
    dtype first, so a complex one (``complex_step``) keeps its imaginary part.
    """
    args = [seq, w_z, w_r, w_h, b_z, b_r, b_h, 1.0 if mask is None else mask]
    dtype = np.result_type(*args)
    seq, w_z, w_r, w_h, b_z, b_r, b_h, mask = [np.asarray(a, dtype) for a in args]
    n, t_len, _ = seq.shape
    h = np.zeros((n, w_z.shape[1]), dtype)
    out = np.zeros((n, t_len, w_z.shape[1]), dtype)
    for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
        h_in = h * mask
        hx = np.concatenate([h_in, seq[:, t]], axis=1)
        z = 1.0 / (1.0 + np.exp(-(hx @ w_z + b_z)))
        r = 1.0 / (1.0 + np.exp(-(hx @ w_r + b_r)))
        c = np.tanh(np.concatenate([r * h_in, seq[:, t]], axis=1) @ w_h + b_h)
        h = (1.0 - z) * h + z * c
        out[:, t] = h
    return out


def scalar_gru_step(x, h_prev, w_z, w_r, w_h, b_z, b_r, b_h):
    """One GRU step for scalar input and scalar hidden state.

    Weights are (w_hh, w_xh) pairs acting on the [h, x] concatenation.
    """

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = sig(w_z[0] * h_prev + w_z[1] * x + b_z)
    r = sig(w_r[0] * h_prev + w_r[1] * x + b_r)
    cand = math.tanh(w_h[0] * (r * h_prev) + w_h[1] * x + b_h)
    return (1.0 - z) * h_prev + z * cand


def squash_vector(s):
    """Norm-limiting nonlinearity on one vector."""
    s = np.asarray(s, dtype=np.float64)
    n = math.sqrt(float((s * s).sum()))
    if n == 0.0:
        return np.zeros_like(s)
    return (n * n / (1.0 + n * n)) * (s / n)


def routing_plain_loops(u_hat, iterations):
    """Agreement routing written with explicit loops over every index.

    u_hat has shape [J, I, D] for a single item; returns (v [J, D],
    couplings [I, J], per-iteration coupling snapshots).
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    j_count, i_count, dim = u_hat.shape
    b = np.zeros((i_count, j_count))
    history = []
    v = np.zeros((j_count, dim))
    c = np.zeros((i_count, j_count))
    for _ in range(iterations):
        c = np.zeros((i_count, j_count))
        for i in range(i_count):
            exps = [math.exp(b[i, j] - max(b[i])) for j in range(j_count)]
            total = sum(exps)
            for j in range(j_count):
                c[i, j] = exps[j] / total
        history.append(c.copy())
        for j in range(j_count):
            s = np.zeros(dim)
            for i in range(i_count):
                s += c[i, j] * u_hat[j, i]
            v[j] = squash_vector(s)
        for i in range(i_count):
            for j in range(j_count):
                b[i, j] += float(np.dot(u_hat[j, i], v[j]))
    return v, c, history


def _taped_add(a, b):
    return T.record_op(a.data + b.data, (a, b), lambda g: (g, g))


def _taped_contract(spec, a, b):
    """``np.einsum(spec, a, b)`` for a spec "x,y->z" whose every index is
    in two of x, y and z, so each adjoint is the einsum of the other two."""
    x, y, z = spec.replace("->", ",").split(",")
    ad, bd = a.data, b.data
    return T.record_op(np.einsum(spec, ad, bd), (a, b),
                       lambda g: (np.einsum(f"{z},{y}->{x}", g, bd),
                                  np.einsum(f"{x},{z}->{y}", ad, g)))


def routing_taped(u_hat, iterations):
    """Agreement routing over [N, J, I, D'] composed of tape ops: softmax,
    the vote-sum and agreement contractions, squash and add per
    iteration. Returns (v, final logits [N, I, J], coupling history),
    like ``layers.dynamic_routing``."""
    n, j_count, i_count, _ = u_hat.shape
    b = T.zeros((n, i_count, j_count), u_hat.dtype)
    history = []
    for _ in range(iterations):
        c = T.softmax(b, axis=2)
        history.append(c.data)
        v = L.squash(_taped_contract("nij,njie->nje", c, u_hat))
        b = _taped_add(b, _taped_contract("njie,nje->nij", u_hat, v))
    return v, b.data, history


def conv_taped(x, kernel, bias):
    """1-d convolution with zero same-padding, [N,T,F] with kernel [w,F,C]
    -> [N,T,C], at every position, composed of tape ops: for each offset d
    a ``matmul`` by a constant block-diagonal shift matrix, which moves each
    document's rows by d - (w-1)//2 and fills with zeros, a ``concat`` of
    the w shifted copies into [N*T, w*F], a ``matmul`` by the kernel
    reshaped to [w*F, C], and ``add_bias``."""
    n, t_len, feat = x.shape
    width, _, out_ch = kernel.shape
    left = (width - 1) // 2
    rows = T.reshape(x, (n * t_len, feat))
    shifted = [T.matmul(T.Tensor(np.kron(np.eye(n), np.eye(t_len, k=d - left)), x.dtype), rows)
               for d in range(width)]
    cols = T.matmul(T.concat(shifted, axis=1), T.reshape(kernel, (width * feat, out_ch)))
    return T.reshape(T.add_bias(cols, bias), (n, t_len, out_ch))


def conv1d_same_padding(x, kernel, bias):
    """Position-wise 1-d convolution with zero same-padding.

    x: [T, F], kernel: [w, F, K], bias: [K] -> [T, K].
    """
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    t_len, feat = x.shape
    width, _, out_ch = kernel.shape
    left = (width - 1) // 2
    padded = np.zeros((t_len + width - 1, feat))
    padded[left:left + t_len] = x
    out = np.zeros((t_len, out_ch))
    for t in range(t_len):
        for k in range(out_ch):
            acc = 0.0
            for d in range(width):
                for f in range(feat):
                    acc += padded[t + d, f] * kernel[d, f, k]
            out[t, k] = acc + bias[k]
    return out
