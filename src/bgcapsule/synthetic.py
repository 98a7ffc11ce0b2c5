"""Synthetic corpus for smoke tests and demos.

The separable corpus plants exactly one of two marker tokens in each
document, so any model that can read one token past the noise should
reach near-perfect accuracy quickly.
"""

from __future__ import annotations

import numpy as np

from .text import LabeledText

_FILLER = [
    "the", "a", "of", "on", "it", "was", "and", "to", "in", "that",
    "this", "with", "for", "had", "but", "not", "all", "one", "so", "then",
]

MARKERS = ("blorput", "zindle")


def separable_corpus(count: int = 200, seed: int = 0, min_len: int = 5,
                     max_len: int = 12) -> list[LabeledText]:
    """Two-class corpus where a single marker token decides the label."""
    rng = np.random.default_rng([seed, 7])
    docs = []
    for i in range(count):
        label = i % 2
        length = int(rng.integers(min_len, max_len + 1))
        words = [str(_FILLER[int(rng.integers(len(_FILLER)))]) for _ in range(length)]
        words[int(rng.integers(length))] = MARKERS[label]
        docs.append(LabeledText(text=" ".join(words), label=label))
    return docs

