"""Seeded synthetic corpora for the benchmark workloads.

Token types are pseudo-words drawn from a Zipfian distribution over a
fixed universe of ``VOCAB_TYPES`` types; the universe itself does not
depend on the seed, only which documents are drawn from it. Each
document carries planted marker words of its class, and its label is
the class whose markers it carries most often. The package's own
``bgcapsule.synthetic`` is deliberately not used, so a change to that
module cannot move a workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VOCAB_TYPES = 20_000
ZIPF_EXPONENT = 1.0
MARKERS_PER_CLASS = 12
SENTENCE_LEN = 12  # a "." token closes a sentence about this often

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "de", "po",
              "ga", "fu", "hi", "je", "bo", "ci", "wa", "ze", "ny", "qu")
_MARKER_SYLLABLES = ("xor", "plim", "drek", "vusk", "trob", "glin")


@dataclass(frozen=True)
class LengthProfile:
    """Document lengths in tokens: normal(mean, sd) clipped to [low, high]."""

    mean: float
    sd: float
    low: int
    high: int


# about 20 tokens, so about 90% of 200 positions are padding
MR_LIKE = LengthProfile(mean=20, sd=6, low=5, high=50)
# about 40 tokens per news item
AG_LIKE = LengthProfile(mean=40, sd=10, low=10, high=100)
# long reviews; roughly one in six exceeds 200 tokens and is truncated
YELP_LIKE = LengthProfile(mean=150, sd=50, low=40, high=400)


def _pseudo_word(index: int, syllables) -> str:
    base = len(syllables)
    parts = [syllables[index % base]]
    index //= base
    while index:
        parts.append(syllables[index % base])
        index //= base
    return "".join(parts)


# rank 0 is the most frequent type; every rank maps to a distinct word
TYPES = [_pseudo_word(i + len(_SYLLABLES), _SYLLABLES) for i in range(VOCAB_TYPES)]
_ZIPF_CDF = np.cumsum(1.0 / np.arange(1, VOCAB_TYPES + 1) ** ZIPF_EXPONENT)
_ZIPF_CDF /= _ZIPF_CDF[-1]


def marker_words(classes: int) -> list[list[str]]:
    """Per class, the marker words that decide a document's label."""
    return [[_pseudo_word(c * MARKERS_PER_CLASS + k, _MARKER_SYLLABLES) + "q"
             for k in range(MARKERS_PER_CLASS)] for c in range(classes)]


@dataclass
class Document:
    text: str
    label: int


def generate(count: int, classes: int, profile: LengthProfile, seed: int) -> list[Document]:
    """``count`` labelled documents; the same arguments give the same documents.

    Each document gets two or three markers of its own class and, one
    time in four, a single marker of another class, so the label is
    always the majority marker class.
    """
    rng = np.random.default_rng([seed, classes])
    markers = marker_words(classes)
    lengths = np.clip(np.rint(rng.normal(profile.mean, profile.sd, count)),
                      profile.low, profile.high).astype(int)
    ranks = np.searchsorted(_ZIPF_CDF, rng.random(int(lengths.sum())))
    labels = rng.integers(classes, size=count)
    docs = []
    start = 0
    for length, label in zip(lengths, labels):
        words = [TYPES[r] for r in ranks[start:start + length]]
        start += length
        for pos in range(SENTENCE_LEN, len(words), SENTENCE_LEN):
            words[pos] = "."
        planted = [markers[label][k] for k in rng.integers(MARKERS_PER_CLASS, size=rng.integers(2, 4))]
        if classes > 1 and rng.random() < 0.25:
            other = (label + 1 + rng.integers(classes - 1)) % classes
            planted.append(markers[other][rng.integers(MARKERS_PER_CLASS)])
        # distinct positions, so no marker overwrites another
        for word, pos in zip(planted, rng.choice(len(words), size=len(planted), replace=False)):
            words[pos] = word
        docs.append(Document(text=" ".join(words), label=int(label)))
    return docs
