"""Model and run configuration, and the one form that serializes a run's.

A run's ``ModelConfig`` and ``AblationConfig`` serialize as the JSON pair
``{"config": {...}, "ablation": {...}}``: a config file holds that object,
and a model artifact's header carries the same two entries. A field left
out takes its default. Unknown or repeated keys and values of the wrong
type raise ``ConfigError``, naming the config file, so a typo in a sweep
fails loudly instead of silently training the default.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError

TRUNCATION_SIDES = ("first", "last")
VARIANTS = ("bgcapsule", "bigru_maxpool", "cnn_capsule")


_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


def _has_type(value, type_name: str) -> bool:
    """Whether ``value`` fits a field annotated ``type_name``; a bool is no number."""
    if type_name.startswith("list"):
        return isinstance(value, list) and all(_has_type(v, "int") for v in value)
    return (isinstance(value, _FIELD_TYPES[type_name])
            and isinstance(value, bool) == (type_name == "bool"))


class _DictConvertible:
    """``to_dict`` and a checked ``from_dict`` for the config dataclasses."""

    def to_dict(self) -> dict:
        return asdict(self)

    # keys that older files carry, each at the one value it may still hold
    retired = {}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError(f"{cls.__name__} needs a mapping, got {type(data).__name__}")
        for key, only in cls.retired.items():
            value = data.get(key, only)
            if type(value) is not type(only) or value != only:  # 1 is not true
                raise ConfigError(f"{cls.__name__}.{key} must be {json.dumps(only)}, "
                                  f"got {value!r}: the paper's model only")
        data = {key: value for key, value in data.items() if key not in cls.retired}
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        for key, value in data.items():
            if not _has_type(value, types[key]):
                raise ConfigError(f"{cls.__name__}.{key} must be {types[key]}, got {value!r}")
        return cls(**data).validate()


@dataclass
class ModelConfig(_DictConvertible):
    """Every architectural and training hyperparameter.

    Defaults are desk-scale where that differs from the published
    setup; the published one trains at batch 1000.

    The head is always one ReLU layer, each input capsule's couplings are
    always a softmax over the upper capsules, and the vote weights are
    always shared. Older config files and artifact headers carry these as
    the keys of ``retired``, which load only at their one value.
    """

    max_len: int = 200
    embed_dim: int = 300
    bigru_sizes: list[int] = field(default_factory=lambda: [256, 200])
    caps_dim: int = 20
    primary_caps_per_pos: int = 1
    routed_caps: int = 10
    routed_caps_dim: int = 20
    routing_iters: int = 3
    dense_hidden: int = 128
    class_count: int = 2
    dropout: float = 0.25
    batch_size: int = 32
    epochs: int = 20
    lr: float = 1e-3
    seed: int = 0
    embed_trainable: bool = False
    truncate_keep: str = "first"

    # not fields: perfbench/checks.py reads these two
    head_activation = "relu"
    softmax_axis = "output_caps"
    retired = {"share_pair_weights": True, "head_activation": head_activation,
               "softmax_axis": softmax_axis}

    def validate(self) -> "ModelConfig":
        positive = (
            "max_len", "embed_dim", "caps_dim", "primary_caps_per_pos", "routed_caps",
            "routed_caps_dim", "routing_iters", "dense_hidden", "class_count",
            "batch_size", "epochs",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if len(self.bigru_sizes) != 2 or any(s < 1 for s in self.bigru_sizes):
            raise ConfigError(f"bigru_sizes needs two positive sizes, got {self.bigru_sizes}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0 < self.lr <= sys.float_info.max:  # exact for an int too large for a float
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.truncate_keep not in TRUNCATION_SIDES:
            raise ConfigError(f"truncate_keep must be one of {TRUNCATION_SIDES}")
        return self


@dataclass
class AblationConfig(_DictConvertible):
    """Which architecture variant to build, plus its knobs."""

    variant: str = "bgcapsule"
    cnn_filter_widths: list[int] = field(default_factory=lambda: [3, 4, 5])
    cnn_filter_count: int = 304  # per width; 3 * 304 = 912 channels
    pool_window: int = 4

    def validate(self) -> "AblationConfig":
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.cnn_filter_widths or any(w < 1 for w in self.cnn_filter_widths):
            raise ConfigError(f"cnn_filter_widths must be positive, got {self.cnn_filter_widths}")
        if self.cnn_filter_count < 1:
            raise ConfigError(f"cnn_filter_count must be >= 1, got {self.cnn_filter_count}")
        if self.pool_window < 1:
            raise ConfigError(f"pool_window must be >= 1, got {self.pool_window}")
        return self


RUN_KEYS = ("config", "ablation")


def run_entries(config: ModelConfig, ablation: AblationConfig) -> dict:
    """The ``{"config": …, "ablation": …}`` pair that serializes a run's configuration."""
    return {"config": config.to_dict(), "ablation": ablation.to_dict()}


def read_run_entries(data) -> tuple[ModelConfig, AblationConfig]:
    """Both configs from a mapping holding the ``run_entries`` pair; other keys are ignored."""
    if not isinstance(data, dict) or not all(key in data for key in RUN_KEYS):
        raise ConfigError(f"a run configuration needs a mapping with the keys {list(RUN_KEYS)}")
    return ModelConfig.from_dict(data["config"]), AblationConfig.from_dict(data["ablation"])


def _unique_keys(pairs) -> dict:
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"repeated keys: {repeated}")
    return dict(pairs)


def load_config_file(path) -> tuple[ModelConfig, AblationConfig]:
    """Read a file written by ``save_config_file``; every error names ``path``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
        configs = read_run_entries(data)
        unknown = sorted(set(data) - set(RUN_KEYS))
        if unknown:
            raise ConfigError(f"unknown keys: {unknown}")
        return configs
    except (ConfigError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ConfigError(f"{path}: {exc}") from exc


def save_config_file(config: ModelConfig, ablation: AblationConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run_entries(config, ablation), handle, indent=2)
        handle.write("\n")
