import csv
import re

import pytest

from bgcapsule import ablation, training
from bgcapsule.config import VARIANTS
from bgcapsule.model import VARIANT_STAGES
from bgcapsule.synthetic import separable_corpus
from bgcapsule.text import DatasetSplit, encode_docs

from conftest import toy_config

LOG_LINE = re.compile(r"variant=(\w+) acc=\d\.\d{4} train_acc=\d\.\d{4} params=\d+ best_epoch=\d+")


def test_every_variant_list_names_the_same_variants():
    assert len(set(ablation.VARIANT_ORDER)) == len(ablation.VARIANT_ORDER)
    assert (set(VARIANTS) == set(VARIANT_STAGES) == set(ablation.VARIANT_ORDER)
            == set(ablation.COLUMN_TITLES))


@pytest.fixture(scope="module")
def ablation_run():
    """One run over a tiny split, with every ``train`` call and its result recorded."""
    split = DatasetSplit(train=separable_corpus(48, seed=1), test=separable_corpus(16, seed=2),
                         class_count=2)
    config = toy_config(epochs=2)
    calls, lines, outcomes = [], [], []
    real_train = training.train

    def recording_train(model, train_docs, val_docs, cfg, log=None):
        calls.append((model, train_docs, val_docs))
        outcomes.append(real_train(model, train_docs, val_docs, cfg, log))
        return outcomes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "train", recording_train)
        result = ablation.run_ablation(split, config, "toy", val_fraction=0.25, log=lines.append)
    return split, config, result, calls, lines, outcomes


def test_every_variant_is_trained_and_logged(ablation_run):
    _, _, result, calls, lines, _ = ablation_run
    assert [model.ablation.variant for model, _, _ in calls] == list(ablation.VARIANT_ORDER)
    assert sorted(result.results) == sorted(ablation.VARIANT_ORDER)
    assert [LOG_LINE.fullmatch(line).group(1) for line in lines] == list(ablation.VARIANT_ORDER)
    for (model, _, _), variant in zip(calls, ablation.VARIANT_ORDER):
        assert result.results[variant].parameter_count == model.parameter_count() > 0


def test_variant_line_keeps_its_keys_and_ends_with_the_best_epoch(ablation_run):
    _, _, result, _, lines, outcomes = ablation_run
    assert len(lines) == len(outcomes) == len(ablation.VARIANT_ORDER)
    for line, outcome, variant in zip(lines, outcomes, ablation.VARIANT_ORDER):
        got = result.results[variant]
        assert got.best_epoch == outcome.best_epoch
        assert line == (f"variant={variant} acc={got.accuracy:.4f} "
                        f"train_acc={got.train_accuracy:.4f} params={got.parameter_count} "
                        f"best_epoch={outcome.best_epoch}")


def test_best_epoch_is_picked_on_training_docs_not_on_test_docs(ablation_run):
    split, config, result, calls, _, _ = ablation_run
    for model, fit_docs, val_docs in calls:
        test_docs = encode_docs(split.test, model.vocab, config.max_len, config.truncate_keep)
        val = {tuple(d.tokens) for d in val_docs}
        assert len(val_docs) == 12 and len(fit_docs) + len(val_docs) == len(split.train)
        assert not val & {tuple(d.tokens) for d in test_docs}
        # the reported accuracy is the test docs' under the restored best-epoch weights
        accuracy = training.evaluate(model, test_docs, config.batch_size).accuracy
        assert result.results[model.ablation.variant].accuracy == accuracy


def test_table_and_csv_render_every_variant(ablation_run, tmp_path):
    _, _, result, _, _, _ = ablation_run
    header, row = result.table_lines()
    positions = [header.index(ablation.COLUMN_TITLES[v]) for v in ablation.VARIANT_ORDER]
    assert header.startswith("dataset") and positions == sorted(positions)
    assert row.split() == ["toy"] + [f"{result.results[v].accuracy:.4f}"
                                     for v in ablation.VARIANT_ORDER]
    path = tmp_path / "ablation.csv"
    ablation.write_ablation_csv([result, result], path)
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    expected = [["toy", v, f"{result.results[v].accuracy:.6f}"] for v in ablation.VARIANT_ORDER]
    assert rows == [["dataset", "variant", "accuracy"]] + expected * 2
