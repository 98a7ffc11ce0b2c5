import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgcapsule import text
from bgcapsule.errors import ConfigError, ContractError, DataError, ParseError

from conftest import loads_or_names, mangled

BOM = "\ufeff"  # a UTF-8 byte-order mark, as some editors write one


# golden tokenizer behavior, frozen by hand from the lowering + punctuation-detach rule
TOKENIZER_GOLDEN = [
    ("The CAT sat.", ["the", "cat", "sat", "."]),
    ("", []),
    ("don't stop", ["don", "'", "t", "stop"]),
    ("Hello,   world!!", ["hello", ",", "world", "!", "!"]),
    ("a-b c_d", ["a", "-", "b", "c_d"]),
    ("Café crème?", ["café", "crème", "?"]),
]


@pytest.mark.parametrize("raw,expected", TOKENIZER_GOLDEN)
def test_tokenize_golden(raw, expected):
    assert text.tokenize_lower(raw) == expected


@given(st.text(max_size=80))
@settings(max_examples=200, deadline=None)
def test_tokenize_deterministic_and_lowercase(raw):
    tokens = text.tokenize_lower(raw)
    assert tokens == text.tokenize_lower(raw)
    for token in tokens:
        assert token == token.lower()
        assert not any(ch.isspace() for ch in token)


def test_build_vocab_first_appearance_order():
    vocab = text.build_vocab([["a", "b", "a"], ["c", "b"]])
    assert vocab.token_to_index == {"a": 1, "b": 2, "c": 3}


def test_build_vocab_empty_and_rerun_identical():
    assert len(text.build_vocab([])) == 0
    docs = [["x", "y"], ["y", "z"]]
    assert text.build_vocab(docs).token_to_index == text.build_vocab(docs).token_to_index


def test_vocab_never_assigns_zero():
    vocab = text.build_vocab([["tok"]])
    assert vocab.lookup("tok") == 1
    assert vocab.lookup("missing") == text.PAD_INDEX
    with pytest.raises(DataError):
        text.Vocabulary({"bad": 0})


@pytest.mark.parametrize("mapping", [
    {"a": 1, "b": 1},  # duplicate
    {"a": 1, "b": 3},  # outside 1..|V|
    {"a": "1"},
    {"a": 1.0},
    {"a": True},
])
def test_vocab_rejects_indices_that_are_not_unique_integers_in_range(mapping):
    with pytest.raises(DataError, match="1..%d" % len(mapping)):
        text.Vocabulary(mapping)


def test_vocab_rejects_a_non_mapping_and_keeps_a_valid_one():
    with pytest.raises(DataError, match="list"):
        text.Vocabulary(["a", "b"])
    vocab = text.Vocabulary({"b": 2, "a": 1})
    assert vocab.lookup("a") == 1 and vocab.lookup("b") == 2 and len(vocab) == 2


def test_pad_prepend_scaled_example():
    assert text.pad_prepend([5, 6], p=4) == [0, 0, 5, 6]


def test_pad_prepend_exact_and_truncation():
    ids = list(range(1, 201))
    assert text.pad_prepend(ids, p=200) == ids
    long = list(range(1, 206))
    assert text.pad_prepend(long, p=200) == long[:200]
    assert text.pad_prepend(long, p=200, keep="last") == long[-200:]


@given(st.lists(st.integers(min_value=1, max_value=9999), max_size=300),
       st.integers(min_value=1, max_value=250))
@settings(max_examples=200, deadline=None)
def test_pad_prepend_length_and_leading_zeros(ids, p):
    padded = text.pad_prepend(ids, p=p)
    assert len(padded) == p
    lead = 0
    while lead < p and padded[lead] == 0:
        lead += 1
    if not any(i == 0 for i in ids):
        assert lead == max(0, p - len(ids))


def test_load_glove_parse_fidelity(tmp_path):
    values = [round(0.1 * i, 1) for i in range(1, 6)]
    path = tmp_path / "vectors.txt"
    path.write_text(
        "the " + " ".join(str(v) for v in values) + "\n"
        "cat 1 2 3 4 5\n"
    )
    vocab = text.build_vocab([["the", "cat", "unseen"]])
    table, report = text.load_glove(path, vocab, dim=5, oov_seed=3)
    npt.assert_allclose(table.vectors[vocab.lookup("the")], np.array(values, dtype=np.float32))
    npt.assert_array_equal(table.vectors[0], np.zeros(5))
    assert (report.found, report.oov) == (2, 1)
    assert report.line() == "found=2 oov=1 oov_rate=0.3333"


def test_load_glove_oov_rows_deterministic(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("a 1.0 2.0\n")
    vocab = text.build_vocab([["a", "b"]])
    t1, _ = text.load_glove(path, vocab, dim=2, oov_seed=9)
    t2, _ = text.load_glove(path, vocab, dim=2, oov_seed=9)
    npt.assert_array_equal(t1.vectors, t2.vectors)
    assert np.all(np.abs(t1.vectors[vocab.lookup("b")]) <= 0.05)
    assert np.any(t1.vectors[vocab.lookup("b")] != 0)


def test_load_glove_malformed_line_reports_number(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("ok 1.0 2.0\nbroken 1.0\n")
    with pytest.raises(ParseError) as err:
        text.load_glove(path, text.build_vocab([["ok"]]), dim=2)
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("lines, bad_line", [
    (["a 0.5 1", "b nan 1"], 2),
    (["a inf -inf", "b 1 2"], 1),
    (["a 1 2", "b 1e39 1"], 2),  # finite as text, inf in float32
], ids=["nan", "inf", "overflow"])
def test_load_glove_rejects_a_non_finite_vector_naming_path_and_line(tmp_path, lines, bad_line):
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"{re.escape(str(path))}:{bad_line}: non-finite"):
        text.load_glove(path, text.build_vocab([["a", "b"]]), dim=2)


def test_glove_file_dim(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("tok 0.5 0.25 0.125\n")
    assert text.glove_file_dim(path) == 3


def test_glove_with_a_byte_order_mark_finds_its_first_word(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(BOM + "the 1 2\ncat 3 4\n", encoding="utf-8")
    vocab = text.build_vocab([["the", "cat"]])
    table, report = text.load_glove(path, vocab, dim=2)
    assert (report.found, report.oov) == (2, 0)
    npt.assert_array_equal(table.vectors[vocab.lookup("the")], [1, 2])
    path.write_text(BOM + "\nthe 1 2\n", encoding="utf-8")  # the mark alone on a blank line
    assert text.glove_file_dim(path) == 2


def test_random_embeddings_pad_row_zero():
    vocab = text.build_vocab([["a", "b"]])
    table = text.random_embeddings(vocab, dim=7, seed=1)
    npt.assert_array_equal(table.vectors[0], np.zeros(7))
    assert table.vectors.shape == (3, 7)


def test_zhang_csv_single_record(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text('"3","t","d"\n')
    split = text.load_dataset(tmp_path, "zhang_csv")
    assert len(split.train) == 1
    doc = split.train[0]
    assert doc.label == 2
    assert doc.text == "t d"


def test_zhang_csv_doubled_quotes_and_test_file(tmp_path):
    (tmp_path / "train.csv").write_text('"1","say ""hi""","body, with comma"\n"2","x","y"\n')
    (tmp_path / "test.csv").write_text('"2","only","one"\n')
    split = text.load_dataset(tmp_path, "zhang_csv")
    assert split.train[0].text == 'say "hi" body, with comma'
    assert split.class_count == 2
    assert len(split.test) == 1


def test_zhang_csv_bad_label(tmp_path):
    path = tmp_path / "data.csv"
    for label in ("x", "1_0", " +2", "\u0663", "01"):  # \u0663 is an Arabic-Indic 3
        path.write_text(f'"{label}","t","d"\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            text.load_dataset(path, "zhang_csv")
        assert "record 1" in str(err.value)


def test_zhang_csv_zero_label_out_of_range(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('"0","t","d"\n')
    with pytest.raises(DataError):
        text.load_dataset(path, "zhang_csv")


def test_zhang_csv_strict_quoting_reads_doubled_quotes_and_quoted_newlines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('1,"say ""hi""","line one\nline two"\n2,"x"\n')
    split = text.load_dataset(path, "zhang_csv")
    assert [d.text for d in split.train] == ['say "hi" line one\nline two', "x"]
    assert [d.label for d in split.train] == [0, 1]


@pytest.mark.parametrize("content, record", [
    ('1,"unterminated\n2,"x"\n', 1),  # read loosely, record 2 joins record 1's text
    ('1,"x"\n2,"' + "a" * 131_073 + '"\n', 2),  # over the csv module's field limit
], ids=["unterminated_quote", "overlong_field"])
def test_zhang_csv_malformed_record_is_a_parse_error_naming_it(tmp_path, content, record):
    path = tmp_path / "data.csv"
    path.write_text(content)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: record {record}: "):
        text.load_dataset(path, "zhang_csv")


def test_zhang_csv_class_index_beyond_the_record_count_is_refused(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('1,"a"\n1000000000,"hello"\n')
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: record 2: class index 1000000000"):
        text.load_dataset(path, "zhang_csv")
    # a small file may still name a class it holds no record of
    path.write_text(f'1,"a"\n{text.CLASS_INDEX_FLOOR},"hello"\n')
    assert text.load_dataset(path, "zhang_csv").class_count == text.CLASS_INDEX_FLOOR


def test_zhang_csv_with_a_byte_order_mark_reads_its_first_record(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(BOM + '"1","first"\n"2","second"\n', encoding="utf-8")
    split = text.load_dataset(path, "zhang_csv")
    assert [(d.label, d.text) for d in split.train] == [(0, "first"), (1, "second")]


def test_mr_polarity_loader(tmp_path):
    (tmp_path / "reviews.pos").write_text("great movie\nloved it\n")
    (tmp_path / "reviews.neg").write_text("terrible\n")
    split = text.load_dataset(tmp_path, "mr_polarity")
    assert split.class_count == 2
    labels = [d.label for d in split.train]
    assert labels == [1, 1, 0]
    assert split.test == []


def test_mr_polarity_with_a_byte_order_mark_keeps_the_first_review_clean(tmp_path):
    (tmp_path / "reviews.pos").write_text(BOM + "great movie\n", encoding="utf-8")
    (tmp_path / "reviews.neg").write_text(BOM + "terrible\n", encoding="utf-8")
    split = text.load_dataset(tmp_path, "mr_polarity")
    assert [d.text for d in split.train] == ["great movie", "terrible"]


def test_load_dataset_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        text.load_dataset(tmp_path, "nope")


def test_expected_counts_check(tmp_path):
    (tmp_path / "a.pos").write_text("x\n")
    (tmp_path / "a.neg").write_text("y\n")
    text.load_dataset(tmp_path, "mr_polarity", expected_counts=(2, 0))
    with pytest.raises(DataError):
        text.load_dataset(tmp_path, "mr_polarity", expected_counts=(3, 0))


def test_kfold_ten_of_ten():
    folds = text.kfold_split(list(range(10)), k=10, seed=0)
    assert len(folds) == 10
    assert all(len(val) == 1 for _, val in folds)


def test_kfold_sizes_for_mr_scale():
    folds = text.kfold_split(list(range(10662)), k=10, seed=1)
    sizes = sorted(len(val) for _, val in folds)
    assert set(sizes) <= {1066, 1067}
    assert sum(sizes) == 10662


def test_kfold_partition_property():
    docs = list(range(53))
    folds = text.kfold_split(docs, k=7, seed=5)
    seen = []
    for train, val in folds:
        seen.extend(val)
        assert set(train).isdisjoint(val)
        assert sorted(train + val) == docs
    assert sorted(seen) == docs


def test_kfold_contract_errors():
    with pytest.raises(ContractError):
        text.kfold_split([1, 2], k=5)
    with pytest.raises(ContractError):
        text.kfold_split([1, 2, 3], k=1)


def test_kfold_deterministic():
    a = text.kfold_split(list(range(20)), k=4, seed=9)
    b = text.kfold_split(list(range(20)), k=4, seed=9)
    assert a == b


def test_holdout_split():
    train, held = text.holdout_split(list(range(100)), fraction=0.1, seed=2)
    assert len(held) == 10 and len(train) == 90
    assert sorted(train + held) == list(range(100))


def test_encode_docs_and_batch(tmp_path):
    docs = [text.LabeledText("b a", 0), text.LabeledText("a q", 1)]
    vocab = text.build_vocab([text.tokenize_lower(d.text) for d in docs[:1]])
    encoded = text.encode_docs(docs, vocab, p=4)
    assert encoded[0].tokens == [0, 0, 1, 2]
    # "q" is unknown to the vocab -> pad index
    assert encoded[1].tokens == [0, 0, 2, 0]
    batch = text.batch_of(encoded)
    assert batch.token_ids.shape == (2, 4)
    assert batch.labels.tolist() == [0, 1]


def test_iter_batches_deterministic_shuffle():
    docs = [text.TokenizedDoc([i], i % 2) for i in range(10)]
    a = [b.token_ids.tolist() for b in text.iter_batches(docs, 3, np.random.default_rng(4))]
    b = [b.token_ids.tolist() for b in text.iter_batches(docs, 3, np.random.default_rng(4))]
    assert a == b
    sizes = [len(chunk) for chunk in a]
    assert sizes == [3, 3, 3, 1]


# ---------------------------------------------------------------------------
# mangled files: each reader loads them or raises a package error naming the file

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(blob=mangled(b'1,"good film, ""fine"" cast"\n2,"bad plot\nbad acting",more\n1,plain\n'))
def test_mangled_zhang_csv_loads_or_raises_naming_it(fuzz_dir, blob):
    path = fuzz_dir / "data.csv"
    path.write_bytes(blob)
    split = loads_or_names(lambda: text.load_dataset(path, "zhang_csv"), path)
    if split is not None:
        assert all(0 <= d.label < split.class_count for d in split.train)


@FUZZ
@given(blob=mangled(b"great movie\nloved it , truly\n"))
def test_mangled_mr_review_file_loads_or_raises_naming_it(fuzz_dir, blob):
    (fuzz_dir / "reviews.neg").write_bytes(b"terrible\n")
    path = fuzz_dir / "reviews.pos"
    path.write_bytes(blob)
    loads_or_names(lambda: text.load_dataset(fuzz_dir, "mr_polarity"), path)


@FUZZ
@given(blob=mangled(b"the 0.5 -1.25 3\ncat 1e-3 2 -0.0\n\nsat 1 2 3\n"))
def test_mangled_glove_file_loads_or_raises_naming_it(fuzz_dir, blob):
    path = fuzz_dir / "vectors.txt"
    path.write_bytes(blob)
    vocab = text.build_vocab([["the", "cat", "sat"]])
    loaded = loads_or_names(lambda: text.load_glove(path, vocab, dim=3), path)
    if loaded is not None:
        assert np.isfinite(loaded[0].vectors).all()
    loads_or_names(lambda: text.glove_file_dim(path), path)
