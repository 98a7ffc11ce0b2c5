"""The benchmark's workloads and the loop that measures them.

Every workload exercises the same three user operations on its own
model and inputs: ``training.train`` (one call per batch, so each call
is one timed step), ``training.evaluate`` (one call per batch) and
``TextClassifier.predict_text`` (one call per document). A run is a
closed loop with one caller: it repeats whole rounds of the same
operations until ``seconds`` have passed, so samples of every kind are
spread over the run, and reports medians. Warm-up (the first set-up,
step, evaluation and prediction) is never timed.

With tracing on, a round is three set-ups and alternating untraced and
traced units (a training step, or a prediction on ``predict_bgcapsule``);
the per-layer figures are medians over the traced units, and the
overhead is the median difference between a traced unit and the
untraced one before it.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
import tracemalloc
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from bgcapsule import layers, model as model_mod, tensor, training
from bgcapsule.artifact import load_model, save_model
from bgcapsule.config import AblationConfig, ModelConfig
from bgcapsule.model import TextClassifier
from bgcapsule.text import LabeledText, build_vocab, encode_docs, random_embeddings, tokenize_lower

import checks
import corpus
from tracer import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    classes: int
    profile: corpus.LengthProfile
    batch_size: int  # ModelConfig.batch_size: the evaluate batch, and the train batch
    step_docs: int  # documents per training.train call
    predicts_per_round: int  # enough that MIN_PREDICTS are timed within the run's seconds
    from_artifact: bool  # set-up is load_model of a saved artifact, not a build from raw text
    trace_unit: str  # "train_step" or "predict": what one traced unit is
    traced_per_round: int


WORKLOADS = {w.name: w for w in (
    Workload("train_bgcapsule", "bgcapsule", 2, corpus.MR_LIKE, batch_size=32, step_docs=32,
             predicts_per_round=30, from_artifact=False,
             trace_unit="train_step", traced_per_round=1),
    Workload("train_cnn_capsule", "cnn_capsule", 4, corpus.AG_LIKE, batch_size=128, step_docs=128,
             predicts_per_round=30, from_artifact=False,
             trace_unit="train_step", traced_per_round=1),
    Workload("predict_bgcapsule", "bgcapsule", 2, corpus.YELP_LIKE, batch_size=32, step_docs=4,
             predicts_per_round=21, from_artifact=True,
             trace_unit="predict", traced_per_round=5),
)}


@dataclass(frozen=True)
class Scale:
    """Model and corpus sizes; DESK is what the benchmark measures."""

    config: dict = field(default_factory=dict)  # ModelConfig overrides
    ablation: dict = field(default_factory=dict)
    corpus_docs: int = 4000  # documents the set-up encodes (vocabulary from the train part)
    heldout_docs: int = 800  # evaluation and prediction inputs, never trained on
    check_docs: int = 4


DESK = Scale()
TOY = Scale(config=dict(max_len=24, embed_dim=8, bigru_sizes=[6, 5], caps_dim=4, routed_caps=3,
                        routed_caps_dim=4, dense_hidden=8, batch_size=8),
            ablation=dict(cnn_filter_count=6), corpus_docs=120, heldout_docs=40)


FAILED = object()
SLICES = 3  # set-ups per round; a single set-up varies too much to stand for the run
# an untraced run goes on past its seconds until it has timed this many
# predictions, so p90 has ten samples beyond it
MIN_PREDICTS = 100


class Recorder:
    """Samples, operation counts and check results of one run."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.attempted = Counter()
        self.failed = Counter()
        self.checks: list[checks.CheckResult] = []

    def op(self, kind, fn, *args, sample=None):
        """Run one operation; time it into ``samples[sample]`` if named.

        A failing operation is counted and its traceback printed; the
        run goes on with the next one.
        """
        self.attempted[kind] += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # noqa: BLE001 - the loop must keep running and count it
            self.failed[kind] += 1
            traceback.print_exc()
            return FAILED
        if sample is not None:
            self.samples[sample].append(time.perf_counter() - start)
        return result

    def check(self, fn, *args):
        self.attempted["check"] += 1
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
            traceback.print_exc()
            result = checks.CheckResult(getattr(fn, "__name__", "check"), False, repr(exc))
        self.checks.append(result)
        if not result.ok:
            self.failed["check"] += 1


class Cycle:
    """Consecutive slices of a list, wrapping around at the end."""

    def __init__(self, items):
        self.items, self.pos = items, 0

    def take(self, count):
        out = [self.items[(self.pos + i) % len(self.items)] for i in range(count)]
        self.pos = (self.pos + count) % len(self.items)
        return out


def _build(w: Workload, scale: Scale, train_raw, encode_raw, stages: dict) -> TextClassifier:
    """Raw documents to a model ready for its first step (the training set-up)."""
    cfg = ModelConfig(**{"batch_size": w.batch_size, "class_count": w.classes, "epochs": 1,
                         **scale.config})
    start = time.perf_counter()
    vocab = build_vocab(tokenize_lower(d.text) for d in train_raw)
    table = random_embeddings(vocab, cfg.embed_dim, cfg.seed)
    mid = time.perf_counter()
    encode_docs(encode_raw, vocab, cfg.max_len, cfg.truncate_keep)
    end = time.perf_counter()
    model = TextClassifier(cfg, vocab, table, AblationConfig(variant=w.variant, **scale.ablation))
    stages["text.vocab_s"].append(mid - start)
    stages["text.encode_s"].append(end - mid)
    stages["model.build_s"].append(time.perf_counter() - end)
    return model


def _load(path, stages: dict):
    start = time.perf_counter()
    model = load_model(path)
    stages["artifact.load_s"].append(time.perf_counter() - start)
    return model


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path,
        scale: Scale = DESK) -> dict:
    """Measure one workload; returns the metrics, operation counts and checks."""
    rec = Recorder()
    stages = defaultdict(list)
    n_train = scale.corpus_docs - scale.heldout_docs
    docs = [LabeledText(d.text, d.label)
            for d in corpus.generate(scale.corpus_docs, w.classes, w.profile, seed)]
    train_raw, heldout_raw = docs[:n_train], docs[n_train:]
    artifact = out_dir / f"{w.name}-{os.getpid()}.bgc"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if w.from_artifact:
            save_model(_build(w, scale, train_raw, [], defaultdict(list)), artifact)

            def setup():
                return _load(artifact, stages)
        else:
            def setup():
                return _build(w, scale, train_raw, docs, stages)

        # the first (cold) set-up is warm-up; later ones are timed and discarded
        model = rec.op("setup", setup)
        if model is FAILED:
            raise RuntimeError(f"{w.name}: set-up failed, nothing to measure")
        stages.clear()
        cfg = model.config
        enc = encode_docs(docs, model.vocab, cfg.max_len, cfg.truncate_keep)
        train_docs, heldout_docs = Cycle(enc[:n_train]), Cycle(enc[n_train:])
        texts = Cycle([d.text for d in heldout_raw])

        def train_step():
            training.train(model, train_docs.take(w.step_docs), [], cfg)

        def eval_batch():
            training.evaluate(model, heldout_docs.take(cfg.batch_size), cfg.batch_size)

        def predict():
            model.predict_text(texts.take(1)[0])

        rec.op("train_step", train_step)
        rec.op("eval_batch", eval_batch)
        rec.op("predict", predict)

        unit = train_step if w.trace_unit == "train_step" else predict
        tracer = Tracer({"layers": layers, "model": model_mod, "tensor": tensor,
                         "training": training}, model.parameters())
        traced = []
        start = time.perf_counter()
        while True:
            if trace:
                for _ in range(SLICES):
                    rec.op("setup", setup, sample="setup")
                for _ in range(w.traced_per_round):
                    rec.op(w.trace_unit, unit, sample="untraced")
                    tracer.reset()
                    with tracer.installed():
                        if rec.op(w.trace_unit, unit, sample="traced") is not FAILED:
                            traced.append(tracer.metrics())
            else:
                # the round's operations are spread over it in slices, so the
                # short ones sample the machine at several points of the round
                for heavy in (("train_step", train_step, "train"),
                              ("eval_batch", eval_batch, "eval"), None):
                    rec.op("setup", setup, sample="setup")
                    for _ in range(w.predicts_per_round // SLICES):
                        rec.op("predict", predict, sample="predict")
                    if heavy:
                        kind, fn, sample = heavy
                        rec.op(kind, fn, sample=sample)
            if (time.perf_counter() - start >= seconds
                    and (trace or len(rec.samples["predict"]) >= MIN_PREDICTS)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            peak_mb = _traced_peak_mb(rec, w.trace_unit, unit)

        check_ids = np.array([d.tokens for d in enc[n_train:n_train + scale.check_docs]])
        check_labels = np.array([d.label for d in enc[n_train:n_train + scale.check_docs]])
        rec.check(checks.check_forward, model, check_ids)
        rec.check(checks.check_gradients, model, check_ids[:2], check_labels[:2])
        rec.check(checks.check_accuracy, model, enc[n_train:n_train + 4 * scale.check_docs],
                  cfg.batch_size)
        rec.check(checks.check_predicted_class, model,
                  [d.text for d in heldout_raw[:scale.check_docs]])
        rec.check(checks.check_round_trip, model, artifact, check_ids[:2])
        artifact_mb = artifact.stat().st_size / 2**20
    finally:
        artifact.unlink(missing_ok=True)

    if trace:
        metrics = _layer_metrics(traced, rec.samples, stages)
        metrics["tensor.peak_mb"] = peak_mb
        metrics["artifact.mb"] = artifact_mb
    else:
        latencies = rec.samples["predict"]
        metrics = {
            "setup_s": statistics.median(rec.samples["setup"]),
            "train_docs_per_s": w.step_docs / statistics.median(rec.samples["train"]),
            "eval_docs_per_s": cfg.batch_size / statistics.median(rec.samples["eval"]),
            "predict_ms_p50": 1e3 * statistics.median(latencies),
            "predict_ms_p90": 1e3 * float(np.percentile(latencies, 90)),
            "peak_rss_mb": peak_rss_mb,
        }
    return {"metrics": metrics, "rec": rec, "absent": tracer.absent}


def _traced_peak_mb(rec: Recorder, kind: str, unit) -> float:
    """Peak Python-tracked allocation of one more unit, under tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rec.op(kind, unit)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def _layer_metrics(traced: list[dict], samples: dict, stages: dict) -> dict:
    keys = set().union(*traced) if traced else set()
    out = {k: statistics.median(t.get(k, 0.0) for t in traced) for k in keys}
    step_ms = 1e3 * statistics.median(samples["traced"])
    out["trace.step_ms"] = step_ms
    out["trace.unattributed_ms"] = step_ms - out.pop("trace.attributed_ms", 0.0)
    out["trace.attributed_pct"] = 100.0 * (1.0 - out["trace.unattributed_ms"] / step_ms)
    # untraced and traced units alternate, so pair them
    out["trace.overhead_ms"] = 1e3 * statistics.median(
        t - u for t, u in zip(samples["traced"], samples["untraced"]))
    for name, values in stages.items():
        out[name] = statistics.median(values)
    return out
