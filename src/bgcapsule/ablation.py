"""Trains the three architecture variants under one controlled harness.

All variants see identical data order and share the base seed, so the
comparison isolates the feature extractor and the routing stage. Each
variant keeps its best epoch on a seeded holdout of the training docs
and is then evaluated once on the test docs, which no choice has seen.
The result renders as an aligned text table and as
``dataset,variant,accuracy`` CSV rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

from .config import AblationConfig, ModelConfig
from .model import TextClassifier
from .text import DatasetSplit, holdout_split
from .training import evaluate, prepare_split, train

COLUMN_TITLES = {
    "bigru_maxpool": "BiGRU + Max Pooling",
    "cnn_capsule": "CNN + Capsule Network",
    "bgcapsule": "BGCapsule",
}

VARIANT_ORDER = ("bigru_maxpool", "cnn_capsule", "bgcapsule")


@dataclass
class VariantResult:
    variant: str
    accuracy: float
    train_accuracy: float
    parameter_count: int


@dataclass
class AblationResult:
    dataset: str
    results: dict[str, VariantResult]

    def table_lines(self) -> list[str]:
        titles = [COLUMN_TITLES[v] for v in VARIANT_ORDER]
        widths = [max(len(t), 10) for t in titles]
        header = "dataset".ljust(14) + "  " + "  ".join(
            t.ljust(w) for t, w in zip(titles, widths)
        )
        cells = [f"{self.results[v].accuracy:.4f}".ljust(w)
                 for v, w in zip(VARIANT_ORDER, widths)]
        return [header, self.dataset.ljust(14) + "  " + "  ".join(cells)]

    def csv_rows(self) -> list[tuple[str, str, float]]:
        return [(self.dataset, v, self.results[v].accuracy) for v in VARIANT_ORDER]


def write_ablation_csv(results: list[AblationResult], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["dataset", "variant", "accuracy"])
        for result in results:
            for dataset, variant, accuracy in result.csv_rows():
                writer.writerow([dataset, variant, f"{accuracy:.6f}"])


def run_ablation(split: DatasetSplit, config: ModelConfig, dataset_name: str = "dataset",
                 base_ablation: AblationConfig | None = None, glove_path=None,
                 val_fraction: float = 0.1, log=None) -> AblationResult:
    """Train every variant on the same split and report test accuracies.

    A seeded ``val_fraction`` of the training docs picks the best epoch.
    When the split has no test portion, a seeded holdout of the training
    set is taken for it first.
    """
    base_ablation = base_ablation or AblationConfig()
    train_raw, test_raw = split.train, split.test
    if not test_raw:
        train_raw, test_raw = holdout_split(train_raw, val_fraction, config.seed)
    fit_raw, val_raw = holdout_split(train_raw, val_fraction, config.seed)
    vocab, table, enc_fit, (enc_val, enc_test) = prepare_split(
        fit_raw, [val_raw, test_raw], config, glove_path)

    results: dict[str, VariantResult] = {}
    for variant in VARIANT_ORDER:
        ablation = replace(base_ablation, variant=variant)
        model = TextClassifier(config, vocab, table, ablation)
        outcome = train(model, enc_fit, enc_val, config)
        metrics = evaluate(model, enc_test, config.batch_size)
        results[variant] = VariantResult(
            variant=variant,
            accuracy=metrics.accuracy,
            train_accuracy=outcome.final_train_acc,
            parameter_count=model.parameter_count(),
        )
        if log:
            log(f"variant={variant} acc={metrics.accuracy:.4f} "
                f"train_acc={outcome.final_train_acc:.4f} params={results[variant].parameter_count}")
    return AblationResult(dataset=dataset_name, results=results)
