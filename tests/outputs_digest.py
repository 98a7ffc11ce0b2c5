"""Print one SHA-256 per variant and corpus over its desk-scale outputs.

Run from the root of a checkout:

    python3 tests/outputs_digest.py

For each variant it builds a desk-scale model (``ModelConfig()``
defaults) on each of two corpora generated here, a short-text one (about
20 tokens in 200 positions, as in MR) and a long-text one (mostly text,
some of it truncated, as in Yelp), and hashes, in this order: the
weights after two training steps, the ``evaluate`` loss and accuracy,
batch ``forward`` at N=32 and N=7, and ``predict_text`` on 20 texts.
Held-out texts carry words the vocabulary lacks, so zero (OOV) rows sit
inside the text. Each line names its variant and corpus, so a changed
digest shows which corpus moved. Two checkouts that print the same lines
give bitwise the same outputs and training; BLAS runs on one thread so that its sums
do not depend on the machine's core count. The script is not a pytest
module; tier-1 does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bgcapsule.config import VARIANTS, AblationConfig, ModelConfig  # noqa: E402
from bgcapsule.model import TextClassifier  # noqa: E402
from bgcapsule.text import LabeledText, batch_of  # noqa: E402
from bgcapsule.training import evaluate, prepare_split, train  # noqa: E402

# (name, shortest and longest document in tokens)
CORPORA = (("short", 8, 40), ("long", 120, 260))
TRAIN_DOCS = 64  # two steps at batch 32
HELD_OUT_DOCS = 64


def corpus(rng, count: int, lengths: tuple[int, int], words: list[str]) -> list[LabeledText]:
    """Documents of random words; the label is the parity of the first word's index."""
    docs = []
    for _ in range(count):
        picks = rng.integers(len(words), size=int(rng.integers(lengths[0], lengths[1] + 1)))
        docs.append(LabeledText(" ".join(words[i] for i in picks), int(picks[0] % 2)))
    return docs


def digest(variant: str, k: int) -> str:
    """The SHA-256 of ``variant``'s outputs on corpus ``CORPORA[k]``."""
    rng = np.random.default_rng([20, k])
    lengths = CORPORA[k][1:]
    known = [f"w{i}" for i in range(300)]
    # a held-out word is unknown one time in ten: a zero row inside the text
    unknown = known + [f"oov{i}" for i in range(30)]
    train_raw = corpus(rng, TRAIN_DOCS, lengths, known)
    held_out = corpus(rng, HELD_OUT_DOCS, lengths, unknown)
    config = ModelConfig(epochs=1)
    vocab, table, train_docs, (held_docs,) = prepare_split(train_raw, [held_out], config)
    model = TextClassifier(config, vocab, table, AblationConfig(variant=variant))
    train(model, train_docs, [], config)
    metrics = evaluate(model, held_docs, config.batch_size)
    outputs = [tensor.data for tensor in model.state_tensors().values()]
    outputs.append(np.array([metrics.loss, metrics.accuracy]))
    outputs += [model.forward(batch_of(held_docs[:n]).token_ids).data for n in (32, 7)]
    outputs += [model.predict_text(doc.text)[1] for doc in held_out[:20]]
    sha = hashlib.sha256()
    for array in outputs:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


if __name__ == "__main__":
    for variant in VARIANTS:
        for k, (name, *_) in enumerate(CORPORA):
            print(f"variant={variant} corpus={name} sha256={digest(variant, k)}", flush=True)
