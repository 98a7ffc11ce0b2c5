"""Smoke test of the benchmark at toy shapes.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_corpus_is_seeded_and_labelled_by_markers():
    a = corpus.generate(50, 4, corpus.AG_LIKE, seed=3)
    assert [d.text for d in a] == [d.text for d in corpus.generate(50, 4, corpus.AG_LIKE, seed=3)]
    assert [d.text for d in a] != [d.text for d in corpus.generate(50, 4, corpus.AG_LIKE, seed=4)]
    markers = corpus.marker_words(4)
    for doc in a:
        words = doc.text.split()
        counts = [sum(words.count(m) for m in markers[c]) for c in range(4)]
        assert counts.index(max(counts)) == doc.label and counts.count(max(counts)) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_at_toy_shapes(name, trace, tmp_path):
    result = workloads.run(workloads.WORKLOADS[name], seed=1, seconds=0.0, trace=trace,
                           out_dir=tmp_path, scale=workloads.TOY)
    rec = result["rec"]
    assert [c.name for c in rec.checks] == ["reference_forward", "directional_gradients",
                                            "accuracy_recount", "predicted_class",
                                            "artifact_round_trip"]
    assert all(c.ok for c in rec.checks), [c.line() for c in rec.checks]
    assert sum(rec.failed.values()) == 0
    assert os.listdir(tmp_path) == []  # the artifact is removed
    metrics = result["metrics"]
    if trace:
        names = {m["name"] for m in SPEC["per_layer"]}
        core = {"trace.step_ms", "trace.overhead_ms", "tensor.peak_mb", "artifact.mb",
                "layers.routing.fwd_ms", "layers.head.fwd_ms"}
        assert core <= set(metrics) and core <= names
        assert metrics["trace.step_ms"] > 0
    else:
        assert {m["name"] for m in SPEC["end_to_end"]} <= set(metrics)
        assert all(v > 0 for v in metrics.values())


def test_traced_bgcapsule_step_names_every_gru_direction(tmp_path):
    result = workloads.run(workloads.WORKLOADS["train_bgcapsule"], seed=2, seconds=0.0,
                           trace=True, out_dir=tmp_path, scale=workloads.TOY)
    metrics = result["metrics"]
    for direction in ("bigru1_fwd", "bigru1_bwd", "bigru2_fwd", "bigru2_bwd"):
        assert metrics[f"layers.{direction}.nodes"] > 0
        assert metrics[f"layers.{direction}.bwd_ms"] > 0
    assert metrics["tensor.nodes"] >= sum(metrics[f"layers.{d}.nodes"] for d in
                                          ("bigru1_fwd", "bigru1_bwd", "bigru2_fwd", "bigru2_bwd"))


def test_missing_function_is_reported_absent_not_fatal():
    empty = types.SimpleNamespace()
    tracer = Tracer({"layers": empty, "model": empty, "tensor": empty, "training": empty}, {})
    with tracer.installed():
        pass
    assert "layers.run_gru" in tracer.absent and "tensor.Tape.backward" in tracer.absent
    assert tracer.metrics()["tensor.backward_ms"] == 0.0


def test_gru_call_is_named_by_its_weights_not_its_order():
    import numpy as np
    from bgcapsule import layers, model as model_mod, tensor, training
    from bgcapsule.tensor import Tensor

    rng = np.random.default_rng(0)
    fwd, bwd = layers.init_gru(rng, 3, 4), layers.init_gru(rng, 3, 4)
    stray = layers.init_gru(rng, 3, 4)
    params = dict(fwd.named("bigru2_fwd"))
    params.update(bwd.named("bigru1_bwd"))
    tracer = Tracer({"layers": layers, "model": model_mod, "tensor": tensor,
                     "training": training}, params)
    seq = Tensor(rng.standard_normal((1, 2, 3)).astype(np.float32))
    with tracer.installed():
        for gru in (bwd, stray, fwd):
            layers.run_gru(seq, gru)
    assert set(tracer.fwd) == {"layers.bigru1_bwd", "layers.run_gru", "layers.bigru2_fwd"}
