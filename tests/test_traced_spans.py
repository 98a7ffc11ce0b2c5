"""The benchmark's tracer must see every layer of the package.

``perfbench/tracer.py`` wraps module attributes by name and names each
``run_gru`` call after the model's ``GruParams`` it receives. A renamed
layer, or a GRU stage that passes copies of its weights, would silently
read zero in the benchmark; these tests fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

from bgcapsule import layers, tensor, training
from bgcapsule import model as model_mod
from bgcapsule.config import VARIANTS, AblationConfig

from conftest import build_toy_model, toy_config

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer_mod = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer_mod)

GRU_SPANS = {f"layers.bigru{k}_{d}" for k in (1, 2) for d in ("fwd", "bwd")}
CAPSULE_SPANS = {"layers.primary_caps", "layers.votes", "layers.routing"}
EXPECTED_SPANS = {
    "bgcapsule": GRU_SPANS | CAPSULE_SPANS,
    "bigru_maxpool": GRU_SPANS,
    "cnn_capsule": {"layers.cnn"} | CAPSULE_SPANS,
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_tracer_sees_every_span_of_a_training_step(variant, separable_docs):
    config = toy_config(epochs=1)
    model, encoded = build_toy_model(separable_docs, config,
                                     AblationConfig(variant=variant, cnn_filter_count=5))
    tracer = tracer_mod.Tracer({"layers": layers, "model": model_mod, "tensor": tensor,
                                "training": training}, model.parameters())
    with tracer.installed():
        training.train(model, encoded[:config.batch_size], [], config)
        model.predict_text("blorput the a")
    assert tracer.absent == []
    assert tracer_mod.GRU_UNMATCHED not in tracer.fwd
    expected = EXPECTED_SPANS[variant] | {"layers.embedding", "layers.head", "text.encode_text"}
    assert expected <= set(tracer.fwd)
    for span in EXPECTED_SPANS[variant] & GRU_SPANS:
        assert tracer.nodes[span] > 0 and tracer.bwd[span] > 0
