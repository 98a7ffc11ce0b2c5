"""Corpus loading, tokenization, vocabulary, padding, and embeddings.

All stages are pure and deterministic under a fixed seed, so batches
are byte-identical across runs. Index 0 is reserved for padding
everywhere: the vocabulary never assigns it and embedding row 0 is
pinned to zeros.
"""

from __future__ import annotations

import csv
import re
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError, ParseError

PAD_INDEX = 0

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize_lower(text: str) -> list[str]:
    """Lowercase, detach punctuation as single-char tokens, split on whitespace."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """token -> integer index map; indices are 1..|V|, each once, and 0 means padding."""

    def __init__(self, token_to_index: dict[str, int] | None = None):
        self.token_to_index: dict[str, int] = {}
        if token_to_index is None:
            return
        if not isinstance(token_to_index, dict):
            raise DataError(f"vocabulary must be a mapping, got {type(token_to_index).__name__}")
        # whole-list checks in C: faster than a Python loop over the entries
        size = len(token_to_index)
        indices = list(token_to_index.values())
        if (list(map(type, indices)).count(int) != size
                or sorted(indices) != list(range(1, size + 1))):
            raise DataError(f"vocabulary indices must be the integers 1..{size}, each once "
                            f"(0 is reserved for padding)")
        self.token_to_index.update(token_to_index)

    def add(self, token: str) -> int:
        index = self.token_to_index.get(token)
        if index is None:
            index = len(self.token_to_index) + 1
            self.token_to_index[token] = index
        return index

    def lookup(self, token: str) -> int:
        """Index of a token; unknown tokens map to the pad index."""
        return self.token_to_index.get(token, PAD_INDEX)

    def __len__(self) -> int:
        return len(self.token_to_index)


def build_vocab(token_docs) -> Vocabulary:
    """Index tokens 1..|V| in order of first appearance."""
    vocab = Vocabulary()
    for tokens in token_docs:
        for token in tokens:
            vocab.add(token)
    return vocab


def pad_prepend(token_ids, p: int = 200, keep: str = "first") -> list[int]:
    """Zero-prepad to length p; overlong docs keep the first (or last) p tokens."""
    ids = list(token_ids)
    if len(ids) >= p:
        return ids[:p] if keep == "first" else ids[-p:]
    return [PAD_INDEX] * (p - len(ids)) + ids


@dataclass
class TokenizedDoc:
    tokens: list[int]  # length exactly p after padding
    label: int


@dataclass
class LabeledText:
    text: str
    label: int


@dataclass
class DatasetSplit:
    train: list[LabeledText]
    test: list[LabeledText]
    class_count: int


@dataclass
class Batch:
    token_ids: np.ndarray  # [N, p] int32
    labels: np.ndarray  # [N] int64


@dataclass
class EmbeddingTable:
    vectors: np.ndarray  # [|V|+1, dim] float32, row 0 all zeros
    dim: InitVar[int]  # checked against the vectors, not kept

    def __post_init__(self, dim: int):
        if self.vectors.shape[1:] != (dim,):
            raise ConfigError(f"embedding vectors {self.vectors.shape} are not dim={dim} wide")


@dataclass
class CoverageReport:
    found: int
    oov: int

    @property
    def oov_rate(self) -> float:
        total = self.found + self.oov
        return self.oov / total if total else 0.0

    def line(self) -> str:
        return f"found={self.found} oov={self.oov} oov_rate={self.oov_rate:.4f}"


def load_glove(path, vocab: Vocabulary, dim: int, oov_seed: int = 0):
    """Read a GloVe text file into an embedding table for ``vocab``.

    Lines are ``token v1 ... v_dim``. Each token the file has overwrites
    its row of ``random_embeddings(vocab, dim, oov_seed)``; the others keep
    their seeded row, and row 0 (padding) stays zeros. A vector that is
    not finite in float32 (``nan``, ``inf``, ``1e39``) is a ``ParseError``.
    Returns the table and a coverage report.
    """
    table = random_embeddings(vocab, dim, oov_seed)
    filled = np.zeros(len(vocab) + 1, dtype=bool)
    with open(path, "r", encoding="utf-8-sig", errors="replace") as handle, np.errstate(over="ignore"):
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ParseError(
                    f"{path}:{line_no}: expected token plus {dim} floats, got {len(parts)} fields"
                )
            index = vocab.token_to_index.get(parts[0])
            if index is None:
                continue
            try:
                row = np.array(parts[1:], dtype=np.float32)
            except ValueError as exc:
                raise ParseError(f"{path}:{line_no}: bad float: {exc}") from exc
            if not np.isfinite(row).all():
                raise ParseError(f"{path}:{line_no}: non-finite value for {parts[0]!r}")
            table.vectors[index] = row
            filled[index] = True
    found = int(filled.sum())
    return table, CoverageReport(found=found, oov=len(vocab) - found)


def glove_file_dim(path) -> int:
    """Vector width of a GloVe text file, read off its first data line."""
    with open(path, "r", encoding="utf-8-sig", errors="replace") as handle:
        for line in handle:
            if line.strip():
                return len(line.rstrip("\n").split(" ")) - 1
    raise ParseError(f"{path}: empty embedding file")


def random_embeddings(vocab: Vocabulary, dim: int, seed: int = 0) -> EmbeddingTable:
    """Seeded uniform(-0.05, 0.05) table for runs without pretrained vectors."""
    rng = np.random.default_rng([seed, 1])
    vectors = rng.uniform(-0.05, 0.05, size=(len(vocab) + 1, dim)).astype(np.float32)
    vectors[PAD_INDEX] = 0.0
    return EmbeddingTable(vectors=vectors, dim=dim)


# ---------------------------------------------------------------------------
# dataset loaders


# A class index above both this and its file's record count is refused. A
# file cannot show more classes than it has records, but a small file may
# name a class it holds no record of.
CLASS_INDEX_FLOOR = 1000


def _read_zhang_csv(path) -> tuple[list[LabeledText], int]:
    docs = []
    top = top_record = 0  # the largest 1-based class index, and its first record
    with open(path, "r", encoding="utf-8-sig", errors="replace", newline="") as handle:
        record_no = 0
        try:
            for record_no, row in enumerate(csv.reader(handle, strict=True), start=1):
                if not row:
                    continue
                if len(row) < 2:
                    raise ParseError(f"{path}: record {record_no}: expected class and text fields")
                try:
                    index = int(row[0])
                    if str(index) != row[0]:  # int() also reads " +1_0" and non-ASCII digits
                        raise ValueError
                except ValueError as exc:
                    raise ParseError(f"{path}: record {record_no}: bad class index {row[0]!r}") from exc
                if index < 1:
                    raise DataError(f"{path}: record {record_no}: class index {row[0]} out of range")
                docs.append(LabeledText(text=" ".join(row[1:]), label=index - 1))
                if index > top:
                    top, top_record = index, record_no
        except csv.Error as exc:
            raise ParseError(f"{path}: record {record_no + 1}: {exc}") from exc
    if top > max(len(docs), CLASS_INDEX_FLOOR):
        raise DataError(f"{path}: record {top_record}: class index {top} exceeds both the file's "
                        f"{len(docs)} records and {CLASS_INDEX_FLOOR}")
    return docs, top


def _load_zhang(path) -> DatasetSplit:
    path = Path(path)
    if path.is_dir():
        train_path, test_path = path / "train.csv", path / "test.csv"
        if not train_path.exists():
            raise DataError(f"{train_path} not found")
        train, c_train = _read_zhang_csv(train_path)
        test, c_test = ([], 0) if not test_path.exists() else _read_zhang_csv(test_path)
        return DatasetSplit(train=train, test=test, class_count=max(c_train, c_test))
    train, classes = _read_zhang_csv(path)
    return DatasetSplit(train=train, test=[], class_count=classes)


def _load_mr(path) -> DatasetSplit:
    """Two one-review-per-line files; positive is label 1, negative label 0."""
    path = Path(path)
    if not path.is_dir():
        raise DataError(f"mr_polarity expects a directory with .pos and .neg files, got {path}")
    pos_files = sorted(path.glob("*.pos"))
    neg_files = sorted(path.glob("*.neg"))
    if len(pos_files) != 1 or len(neg_files) != 1:
        raise DataError(f"{path}: need exactly one .pos and one .neg file")
    docs = []
    for file_path, label in ((pos_files[0], 1), (neg_files[0], 0)):
        with open(file_path, "r", encoding="utf-8-sig", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    docs.append(LabeledText(text=line, label=label))
    return DatasetSplit(train=docs, test=[], class_count=2)


FORMATS = ("zhang_csv", "mr_polarity")


def load_dataset(path, fmt: str, expected_counts=None) -> DatasetSplit:
    """Load a corpus; ``expected_counts`` is an optional (train, test) check."""
    if fmt == "zhang_csv":
        split = _load_zhang(path)
    elif fmt == "mr_polarity":
        split = _load_mr(path)
    else:
        raise ConfigError(f"unknown dataset format {fmt!r}; expected one of {FORMATS}")
    if expected_counts is not None:
        got = (len(split.train), len(split.test))
        if got != tuple(expected_counts):
            raise DataError(f"{path}: expected counts {tuple(expected_counts)}, got {got}")
    return split


# ---------------------------------------------------------------------------
# splitting and batching


def kfold_split(docs, k: int = 10, seed: int = 0):
    """Deterministic k-fold partition; fold sizes differ by at most one."""
    docs = list(docs)
    if k < 2:
        raise ContractError(f"k must be >= 2, got {k}")
    if k > len(docs):
        raise ContractError(f"k={k} exceeds corpus size {len(docs)}")
    order = np.random.default_rng([seed, 2]).permutation(len(docs))
    fold_indices = np.array_split(order, k)
    pairs = []
    for i in range(k):
        val_idx = set(fold_indices[i].tolist())
        validation = [docs[j] for j in fold_indices[i]]
        train = [docs[j] for j in order if j not in val_idx]
        pairs.append((train, validation))
    return pairs


def holdout_split(docs, fraction: float = 0.1, seed: int = 0):
    """Seeded (train, held-out) split with ``fraction`` going to the holdout."""
    docs = list(docs)
    if not 0.0 < fraction < 1.0:
        raise ContractError(f"holdout fraction must be in (0,1), got {fraction}")
    order = np.random.default_rng([seed, 3]).permutation(len(docs))
    cut = max(1, int(round(len(docs) * fraction)))
    held = [docs[j] for j in order[:cut]]
    rest = [docs[j] for j in order[cut:]]
    return rest, held


def encode_ids(text: str, vocab: Vocabulary, p: int = 200, keep: str = "first") -> list[int]:
    """Tokenize one text, index it (unknown tokens map to 0, padding) and
    pre-pad it to length p, keeping the ``keep`` end of an overlong text."""
    return pad_prepend([vocab.lookup(token) for token in tokenize_lower(text)], p, keep)


def encode_docs(docs, vocab: Vocabulary, p: int = 200, keep: str = "first") -> list[TokenizedDoc]:
    """``encode_ids`` of each labeled text."""
    return [TokenizedDoc(tokens=encode_ids(doc.text, vocab, p, keep), label=doc.label)
            for doc in docs]


def batch_of(docs: list[TokenizedDoc]) -> Batch:
    ids = np.array([d.tokens for d in docs], dtype=np.int32)
    labels = np.array([d.label for d in docs], dtype=np.int64)
    return Batch(token_ids=ids, labels=labels)


def iter_batches(docs: list[TokenizedDoc], batch_size: int, rng=None):
    """Yield batches of at most ``batch_size``; shuffles when given an rng."""
    order = np.arange(len(docs))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, len(docs), batch_size):
        yield batch_of([docs[i] for i in order[start:start + batch_size]])

