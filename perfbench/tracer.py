"""Outside-in trace of the package's layers.

The tracer wraps public functions of ``bgcapsule`` from here, for the
duration of a ``with tracer.installed():`` block, and restores them
afterwards. Forward spans are self times: a wrapped call nested in
another is subtracted from its parent. Tape nodes recorded while a
span is open belong to the innermost span; when ``Tape.backward`` runs,
each node's backward function is timed and charged to its owner, so a
layer's ``bwd_ms`` is the time spent in the backward functions of the
nodes it recorded. What ``Tape.backward`` spends outside those
functions is tape bookkeeping.

A wrapped function that no longer exists is reported as absent and its
metrics read zero, so a refactor that renames a layer does not break
the benchmark. A ``run_gru`` call is named after the model parameters
it was given, not after its place in the forward pass, so a change to
the number or order of GRU calls cannot charge one direction's time to
another; a call on weights that are no GRU direction of the model goes
to ``layers.run_gru``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

OTHER = "other"
# a run_gru call on weights that are not one of the model's GRU directions
GRU_UNMATCHED = "layers.run_gru"

# (module, attribute path, span); a span of None is named per call by
# _gru_span, from the weights the call was given.
STAGES = (
    ("layers", "embedding_forward", "layers.embedding"),
    ("layers", "run_gru", None),
    ("layers", "cnn_feature_extractor", "layers.cnn"),
    ("layers", "primary_capsules", "layers.primary_caps"),
    ("layers", "predict_vectors", "layers.votes"),
    ("layers", "dynamic_routing", "layers.routing"),
    ("layers", "dense_head", "layers.head"),
    ("training", "cross_entropy", "training.loss"),
    ("model", "TextClassifier.encode_text", "text.encode_text"),
)


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]


class Tracer:
    """Per-unit (one training step or one prediction) span and node accounting."""

    def __init__(self, modules: dict, params: dict):
        """``params`` are the traced model's named parameters; a ``run_gru``
        call is charged to ``layers.<prefix>`` of the GRU whose ``w_z`` it
        was given (``layers.bigru1_fwd`` for ``bigru1_fwd.w_z``)."""
        self.modules = modules
        self.gru_spans = {id(t): "layers." + name[:-len(".w_z")]
                          for name, t in params.items() if name.endswith(".w_z")}
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.fwd = defaultdict(float)  # span -> self seconds
        self.bwd = defaultdict(float)  # span -> seconds in its nodes' backward functions
        self.nodes = defaultdict(int)  # span -> tape nodes recorded
        self.calls = defaultdict(float)  # tensor/training entry points -> seconds
        self.tape_nodes = 0
        self._owner: dict[int, str] = {}
        self._children = [0.0]

    # -- wrappers -----------------------------------------------------

    def _active_tape(self):
        active = getattr(self.modules["tensor"], "active_tape", None)
        return active() if active else None

    def _stage(self, fn, span):
        def wrapper(*args, **kwargs):
            name = span or self._gru_span(args, kwargs)
            tape = self._active_tape()
            first = len(tape.nodes) if tape is not None else 0
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = self._children.pop()
                self._children[-1] += elapsed
                self.fwd[name] += elapsed - nested
                if tape is not None:
                    for i in range(first, len(tape.nodes)):
                        if i not in self._owner:
                            self._owner[i] = name
                            self.nodes[name] += 1
        return wrapper

    def _gru_span(self, args, kwargs):
        params = kwargs.get("params", args[1] if len(args) > 1 else None)
        return self.gru_spans.get(id(getattr(params, "w_z", None)), GRU_UNMATCHED)

    def _timed_node(self, fn, owner):
        def backward(grad):
            start = time.perf_counter()
            out = fn(grad)
            self.bwd[owner] += time.perf_counter() - start
            return out
        return backward

    def _tape_backward(self, fn):
        def backward(tape, loss):
            self.tape_nodes = len(tape.nodes)
            for i, node in enumerate(tape.nodes):
                node.backward = self._timed_node(node.backward, self._owner.get(i, OTHER))
            start = time.perf_counter()
            try:
                return fn(tape, loss)
            finally:
                self.calls["tensor.backward"] += time.perf_counter() - start
        return backward

    def _timed_call(self, fn, key):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls[key] += time.perf_counter() - start
        return wrapper

    def _timed_iter(self, fn, key):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self.calls[key] += time.perf_counter() - start
                    return
                self.calls[key] += time.perf_counter() - start
                yield item
        return wrapper

    def _patches(self):
        for module, path, span in STAGES:
            yield module, path, lambda fn, span=span: self._stage(fn, span)
        yield "tensor", "Tape.backward", self._tape_backward
        yield "tensor", "Tape.grad", lambda fn: self._timed_call(fn, "tensor.grad")
        yield "training", "Adam.step", lambda fn: self._timed_call(fn, "training.adam")
        yield "training", "iter_batches", lambda fn: self._timed_iter(fn, "training.batch")

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        saved = []
        absent = []
        for module, path, make in self._patches():
            owner, attr = _resolve(self.modules[module], path)
            if owner is None:
                absent.append(f"{module}.{path}")
                continue
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        self.absent = absent
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Milliseconds and counts for the unit traced since the last ``reset``."""
        out: dict[str, float] = {}
        for span, seconds in self.fwd.items():
            out[f"{span}.fwd_ms"] = 1e3 * seconds
        for span, seconds in self.bwd.items():
            out[f"{span}.bwd_ms"] = 1e3 * seconds
        for span, count in self.nodes.items():
            out[f"{span}.nodes"] = count
        backward = self.calls["tensor.backward"]
        out["tensor.nodes"] = self.tape_nodes
        out["tensor.backward_ms"] = 1e3 * backward
        out["tensor.bookkeeping_ms"] = 1e3 * (backward - sum(self.bwd.values())) if backward else 0.0
        out["tensor.grad_ms"] = 1e3 * self.calls["tensor.grad"]
        out["training.adam_ms"] = 1e3 * self.calls["training.adam"]
        out["training.batch_ms"] = 1e3 * self.calls["training.batch"]
        out["text.encode_text_ms"] = out.pop("text.encode_text.fwd_ms", 0.0)
        out["trace.attributed_ms"] = 1e3 * (sum(self.fwd.values()) + backward
                                            + sum(v for k, v in self.calls.items()
                                                  if k != "tensor.backward"))
        return out
