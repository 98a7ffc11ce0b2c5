"""Dense tensors with a reverse-mode gradient tape.

Values are numpy arrays in row-major order. float32 is the working
precision for training; build tensors with ``dtype=np.float64`` when
checking gradients against finite differences (``tests/oracles.py``'s
``grad_check``). The only broadcast is ``add_bias``'s explicit
row-vector add. ``matmul``, ``add_bias`` and ``concat`` each check
their own operands' shapes and raise ``DimensionError``.
Set ``BGC_CHECK_FINITE=1`` to assert that every op output is finite;
it is read once, at import.

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

import numpy as np

from .errors import ContractError, DimensionError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_state = threading.local()
_check_finite = os.environ.get("BGC_CHECK_FINITE", "") == "1"


class Tensor:
    """Immutable-by-convention n-d float array, optionally on a tape.

    ``node_id`` is the index of the op that produced this tensor on the
    tape that recorded it, or None for leaves / untaped values.
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
    """True when a tape is active and ``t`` is watched by it or the output of
    an op it recorded.

    Anything else is a constant to the active tape, so no gradient of it
    can be read: an output recorded on an earlier tape too.
    """
    tape = active_tape()
    if tape is None:
        return False
    i = t.node_id
    recorded = i is not None and i < len(tape.nodes) and tape.nodes[i].output is t
    return recorded or id(t) in tape._watched


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
    """Join tensors of equal shape off ``axis`` into one C-contiguous array.

    The result is written into a new C-ordered array whatever the inputs'
    layout: ``np.concatenate`` of transposed views (``layers.run_gru``'s
    outputs) would follow their layout, and a later ``reshape`` of that
    would copy."""
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
    sizes = [t.shape[axis] for t in tensors]
    base[axis] = sum(sizes)
    arrays = [t.data for t in tensors]
    out = np.concatenate(arrays, axis=axis, out=np.empty(base, np.result_type(*arrays)))
    offsets = np.cumsum(sizes)[:-1]
    return record_op(out, tensors, lambda g: tuple(np.split(g, offsets, axis=axis)))


def reshape(t: Tensor, shape) -> Tensor:
    out = t.data.reshape(shape)
    return record_op(out, (t,), lambda g: (g.reshape(t.shape),))

