"""Dense tensors with a reverse-mode gradient tape.

Values are numpy arrays in row-major order. float32 is the working
precision for training; build tensors with ``dtype=np.float64`` when
checking gradients. The only broadcast is ``add_bias``'s explicit
row-vector add. ``matmul``, ``add_bias``, ``einsum2`` and ``concat``
each check their own operands' shapes and raise ``DimensionError``.
Set ``BGC_CHECK_FINITE=1`` to assert that every op output is finite.

A :class:`Tape` records ops while it is the active context, each op
only when some input needs a gradient (``needs_grad``): an op over
constants alone yields a constant and leaves no node. ``backward``
walks the recorded nodes in reverse creation order, which is a reverse
topological order because inputs always exist before their outputs.
Tapes are single-threaded and meant to be discarded after one
forward/backward pass.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

_state = threading.local()
_check_finite = os.environ.get("BGC_CHECK_FINITE", "") == "1"


def set_check_finite(enabled: bool) -> None:
    """Toggle the NaN/Inf assertion on op outputs (BGC_CHECK_FINITE)."""
    global _check_finite
    _check_finite = bool(enabled)


class Tensor:
    """Immutable-by-convention n-d float array, optionally on a tape.

    ``node_id`` is the index of the op that produced this tensor on the
    active tape, or None for leaves / untaped values.
    """

    __slots__ = ("data", "node_id")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.node_id = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


class _Node:
    __slots__ = ("output", "inputs", "backward")

    def __init__(self, output, inputs, backward):
        self.output = output
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Append-only op log for one forward pass.

    Use as a context manager; ops executed inside record themselves.
    ``backward`` may be called repeatedly and always recomputes from
    scratch, so replays are deterministic.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.gradients: dict[int, np.ndarray] = {}
        self._watched: dict[int, Tensor] = {}
        self._consumed: dict[int, Tensor] = {}  # every op's inputs, held so their ids stay unique

    def __enter__(self) -> "Tape":
        stack = getattr(_state, "tapes", None)
        if stack is None:
            stack = _state.tapes = []
        stack.append(self)
        return self

    def __exit__(self, *exc):
        _state.tapes.pop()
        return False

    def watch(self, *tensors: Tensor) -> None:
        """Mark leaves whose gradients will be read; see ``needs_grad``.

        Watch a leaf before any op consumes it: an op may skip the
        gradient of an input that was neither watched nor recorded when
        it ran, and an op with no such input leaves no node at all, so
        watching it later raises ``ContractError`` instead of letting its
        gradient read as zero.
        """
        late = [t for t in tensors if id(t) in self._consumed]
        if late:
            raise ContractError(f"watch() after an op consumed {late[0]!r}; watch leaves first")
        self._watched.update((id(t), t) for t in tensors)

    def record(self, output: Tensor, inputs, backward) -> None:
        output.node_id = len(self.nodes)
        self.nodes.append(_Node(output, tuple(inputs), backward))

    def backward(self, loss: Tensor) -> None:
        """Populate gradients of everything recorded, seeding d(loss)=1."""
        if loss.shape != ():
            raise ContractError(f"loss must be a scalar tensor, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
        for node in reversed(self.nodes):
            g = grads.get(id(node.output))
            if g is None:
                continue
            for tensor, contrib in zip(node.inputs, node.backward(g)):
                if contrib is None:
                    continue
                acc = grads.get(id(tensor))
                grads[id(tensor)] = contrib if acc is None else acc + contrib
        self.gradients = grads

    def grad(self, tensor: Tensor) -> Tensor:
        """Gradient of the last ``backward`` loss w.r.t. ``tensor`` (zeros if untouched)."""
        arr = self.gradients.get(id(tensor))
        if arr is None:
            return Tensor(np.zeros_like(tensor.data))
        return Tensor(np.broadcast_to(arr, tensor.shape).astype(tensor.dtype, copy=False))


def active_tape() -> Tape | None:
    stack = getattr(_state, "tapes", None)
    return stack[-1] if stack else None


def needs_grad(t: Tensor) -> bool:
    """True when a tape is active and ``t`` is watched or a recorded op's output.

    Anything else is a constant to the active tape, so no gradient of it
    can be read.
    """
    tape = active_tape()
    return tape is not None and (t.node_id is not None or id(t) in tape._watched)


def record_op(out_data: np.ndarray, inputs, backward_fn) -> Tensor:
    """Wrap an op result and record it on the active tape when some input
    ``needs_grad``; otherwise the result is a constant and no node is kept.

    ``backward_fn(grad_out)`` must return one gradient array per input,
    each matching that input's shape, or None for no gradient. An input
    for which ``needs_grad`` was false when the op ran may get None.
    ``BGC_CHECK_FINITE`` checks every output, recorded or not.
    """
    if _check_finite and not np.all(np.isfinite(out_data)):
        raise FloatingPointError("non-finite value in op output")
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        tape._consumed.update((id(t), t) for t in inputs)
        if any(needs_grad(t) for t in inputs):
            tape.record(out, inputs, backward_fn)
    return out


def zeros(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-d matrix product [m,k] x [k,n] -> [m,n]."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul needs [m,k] x [k,n], got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    return record_op(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-F bias vector to every row of [..., F]."""
    if b.ndim != 1 or x.ndim < 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"add_bias needs [...,F] and [F], got {x.shape} and {b.shape}")
    lead = tuple(range(x.ndim - 1))
    return record_op(x.data + b.data, (x, b), lambda g: (g, g.sum(axis=lead)))


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def relu(t: Tensor) -> Tensor:
    x = t.data
    out = np.maximum(x, 0)
    return record_op(out, (t,), lambda g: (g * (x > 0),))


def selu(t: Tensor) -> Tensor:
    x = t.data
    pos = x > 0
    out = np.where(pos, SELU_LAMBDA * x, SELU_LAMBDA * SELU_ALPHA * np.expm1(np.minimum(x, 0.0)))
    out = out.astype(t.dtype, copy=False)
    return record_op(
        out, (t,), lambda g: (g * np.where(pos, SELU_LAMBDA, out + SELU_LAMBDA * SELU_ALPHA),)
    )


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted exp-normalize along ``axis``; slices sum to one."""
    _check_axis(t, axis)
    x = t.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return record_op(out, (t,), back)


# ---------------------------------------------------------------------------
# structural ops


def _check_axis(t: Tensor, axis: int) -> int:
    if not -t.ndim <= axis < t.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {t.shape}")
    return axis % t.ndim


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of zero tensors")
    axis = _check_axis(tensors[0], axis)
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or other[:axis] + other[axis + 1:] != base[:axis] + base[axis + 1:]:
            raise DimensionError(
                f"concat shapes differ off axis {axis}: {tensors[0].shape} vs {t.shape}"
            )
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]
    return record_op(out, tensors, lambda g: tuple(np.split(g, offsets, axis=axis)))


def reshape(t: Tensor, shape) -> Tensor:
    out = t.data.reshape(shape)
    return record_op(out, (t,), lambda g: (g.reshape(t.shape),))


# ---------------------------------------------------------------------------
# two-operand einsum


def _parse_einsum2(subscripts: str, a: Tensor, b: Tensor):
    try:
        in_spec, out_spec = subscripts.replace(" ", "").split("->")
        a_spec, b_spec = in_spec.split(",")
    except ValueError:
        raise DimensionError(f"einsum2 spec must look like 'ab,bc->ac', got {subscripts!r}")
    for spec, t in ((a_spec, a), (b_spec, b)):
        if len(spec) != t.ndim:
            raise DimensionError(f"spec {spec!r} does not match shape {t.shape}")
        if len(set(spec)) != len(spec):
            raise DimensionError(f"repeated index in operand spec {spec!r} is not supported")
    known = set(a_spec) | set(b_spec)
    if not set(out_spec) <= known:
        raise DimensionError(f"output indices {out_spec!r} not all bound by inputs")
    # every input index must survive in the other operand or the output,
    # otherwise the adjoint einsum would be underdetermined
    for spec, other in ((a_spec, set(b_spec) | set(out_spec)), (b_spec, set(a_spec) | set(out_spec))):
        if not set(spec) <= other:
            raise DimensionError(f"index summed inside a single operand in {subscripts!r}")
    extents: dict[str, int] = {}
    for spec, t in ((a_spec, a), (b_spec, b)):
        for letter, extent in zip(spec, t.shape):
            if extents.setdefault(letter, extent) != extent:
                raise DimensionError(
                    f"extent mismatch for index {letter!r} in {subscripts!r}: "
                    f"{a.shape} vs {b.shape}"
                )
    return a_spec, b_spec, out_spec


def einsum2(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable two-operand einsum for batched contractions.

    Each index must appear in at least two of (a, b, output) so both
    adjoints are plain einsums; diagonals are rejected.
    """
    a_spec, b_spec, out_spec = _parse_einsum2(subscripts, a, b)
    ad, bd = a.data, b.data
    out = np.einsum(subscripts, ad, bd, optimize=True)

    def back(g):
        ga = np.einsum(f"{out_spec},{b_spec}->{a_spec}", g, bd, optimize=True)
        gb = np.einsum(f"{a_spec},{out_spec}->{b_spec}", ad, g, optimize=True)
        return (ga, gb)

    return record_op(out, (a, b), back)


# ---------------------------------------------------------------------------
# gradient checking


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


def error_stats(analytic: np.ndarray, numeric: np.ndarray):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    abs_err = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    rel_err = np.where(denom > 0, abs_err / np.where(denom > 0, denom, 1.0), 0.0)
    combined = np.minimum(abs_err, rel_err)
    if abs_err.size == 0:
        return 0.0, 0.0, 0.0
    return float(abs_err.max()), float(rel_err.max()), float(combined.max())


def grad_check(f, x: Tensor, step: float = 1e-5, tol: float = 1e-4, name: str = "") -> GradCheckReport:
    """Check d f(x) / d x against central finite differences.

    ``f`` must be deterministic and return a scalar Tensor. ``x`` must be
    float64, else ``ContractError``. Each element of ``x.data`` is
    perturbed in place and restored bitwise, so ``f`` may ignore its
    argument and read ``x`` where it is held, such as a model's weight.
    """
    if x.dtype != np.float64:
        raise ContractError(f"grad_check needs a float64 tensor, got {x.dtype}")
    with Tape() as tape:
        tape.watch(x)
        loss = f(x)
        if loss.shape != ():
            raise ContractError("grad_check target must return a scalar")
        tape.backward(loss)
        analytic = tape.grad(x).data

    data = x.data
    numeric = np.empty_like(data)
    for i in np.ndindex(data.shape):
        orig = data[i]
        try:
            data[i] = orig + step
            up = f(x).item()
            data[i] = orig - step
            down = f(x).item()
        finally:
            data[i] = orig
        numeric[i] = (up - down) / (2.0 * step)

    max_abs, max_rel, max_err = error_stats(analytic, numeric)
    return GradCheckReport(
        name=name or getattr(f, "__name__", "f"),
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        max_err=max_err,
        tol=tol,
        passed=max_err < tol,
    )
