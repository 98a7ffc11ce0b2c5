"""Print two SHA-256 digests per variant and corpus over its desk-scale outputs.

Run from the root of a checkout:

    python3 tests/outputs_digest.py [SRC]

It imports ``bgcapsule`` from ``SRC``, by default this checkout's
``src/``. Run against another checkout's ``src/`` (say, the parent
commit's), it hashes that code's outputs with this script's format, so
two trees compare even when the script itself changed between them.

For each variant it builds a desk-scale model (``ModelConfig()``
defaults) on each of two corpora generated here, a short-text one (about
20 tokens in 200 positions, as in MR) and a long-text one (mostly text,
some of it truncated, as in Yelp). It prints two lines for each, named
by variant, corpus and part:

- ``part=forward`` hashes, in this order, the freshly built model's
  ``evaluate`` loss and accuracy, its batch ``forward`` at N=32 and N=7,
  and ``predict_text`` on 20 texts;
- ``part=trained`` then hashes, after two training steps of the same
  model, its weights, followed by the same outputs.

Held-out texts carry words the vocabulary lacks, so zero (OOV) rows sit
inside the text. Two checkouts that print the same lines give bitwise
the same outputs and training; a change that moves only gradients keeps
the ``part=forward`` lines and moves ``part=trained`` ones. BLAS runs on
one thread so that its sums do not depend on the machine's core count.
The script is not a pytest module; tier-1 does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC.resolve()))

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


def outputs(model, held_out, held_docs, batch_size: int) -> list[np.ndarray]:
    """``evaluate``'s loss and accuracy, batch ``forward`` at N=32 and N=7,
    and ``predict_text`` on 20 texts."""
    metrics = evaluate(model, held_docs, batch_size)
    arrays = [np.array([metrics.loss, metrics.accuracy])]
    arrays += [model.forward(batch_of(held_docs[:n]).token_ids).data for n in (32, 7)]
    return arrays + [model.predict_text(doc.text)[1] for doc in held_out[:20]]


def sha256(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def digests(variant: str, k: int) -> dict[str, str]:
    """The SHA-256 of ``variant``'s outputs on corpus ``CORPORA[k]``, per part."""
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
    forward = sha256(outputs(model, held_out, held_docs, config.batch_size))
    train(model, train_docs, [], config)
    weights = [tensor.data for tensor in model.state_tensors().values()]
    trained = sha256(weights + outputs(model, held_out, held_docs, config.batch_size))
    return {"forward": forward, "trained": trained}


if __name__ == "__main__":
    for variant in VARIANTS:
        for k, (name, *_) in enumerate(CORPORA):
            for part, sha in digests(variant, k).items():
                print(f"variant={variant} corpus={name} part={part} sha256={sha}", flush=True)
