"""Trains the three architecture variants under one controlled harness.

All variants see identical data order and share the base seed, so the
comparison isolates the feature extractor and the routing stage; each
is fit and tested by ``training.fit_and_test``. The result renders as an aligned text table and as
``dataset,variant,accuracy`` CSV rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

from .config import AblationConfig, ModelConfig
from .text import DatasetSplit, holdout_split
from .training import fit_and_test

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
    best_epoch: int


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
    """Fit and test every variant on the same split and report test accuracies.

    When the split has no test portion, a seeded ``val_fraction`` of the
    training set is held out for it first.
    """
    base_ablation = base_ablation or AblationConfig()
    train_raw, test_raw = split.train, split.test
    if not test_raw:
        train_raw, test_raw = holdout_split(train_raw, val_fraction, config.seed)
    ablations = [replace(base_ablation, variant=variant) for variant in VARIANT_ORDER]
    results: dict[str, VariantResult] = {}
    for model, outcome, metrics in fit_and_test(train_raw, test_raw, config, ablations,
                                                glove_path, val_fraction):
        result = VariantResult(model.ablation.variant, metrics.accuracy,
                               outcome.final_train_acc, model.parameter_count(),
                               outcome.best_epoch)
        results[result.variant] = result
        if log:
            log(f"variant={result.variant} acc={result.accuracy:.4f} "
                f"train_acc={result.train_accuracy:.4f} params={result.parameter_count} "
                f"best_epoch={result.best_epoch}")
    return AblationResult(dataset=dataset_name, results=results)
