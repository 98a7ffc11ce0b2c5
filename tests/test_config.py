import re

import pytest

from bgcapsule.config import AblationConfig, ModelConfig, load_config_file, save_config_file
from bgcapsule.errors import ConfigError

from conftest import toy_config


def test_config_file_round_trip(tmp_path):
    cfg = toy_config(bigru_sizes=[7, 5], lr=0.125, share_pair_weights=False,
                     softmax_axis="input_caps", truncate_keep="last", head_activation="selu")
    path = tmp_path / "run.cfg"
    save_config_file(cfg, path)
    assert load_config_file(path) == cfg


def test_config_file_unknown_key_names_path_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# sweep\nmax_len = 16\n\nlearning_rate = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:4") + ".*learning_rate"):
        load_config_file(path)


@pytest.mark.parametrize("line", ["max_len = 1.5", "dropout = half", "bigru_sizes = 4,x",
                                  "embed_trainable = maybe"])
def test_config_file_bad_value_names_path_and_line(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(f"seed = 3\n{line}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:2: {line.split()[0]}: expected")):
        load_config_file(path)


def test_config_file_rejects_non_finite_lr(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = nan\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="lr"):
        load_config_file(path)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
def test_validate_rejects_lr_that_is_not_positive_and_finite(lr):
    with pytest.raises(ConfigError, match="lr"):
        ModelConfig(lr=lr).validate()


def test_from_dict_round_trips_both_configs():
    cfg = toy_config(dropout=0.0)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    ab = AblationConfig(variant="cnn_capsule", cnn_filter_widths=[2], cnn_filter_count=3)
    assert AblationConfig.from_dict(ab.to_dict()) == ab


def test_from_dict_accepts_an_integer_for_a_float_field():
    assert ModelConfig.from_dict({"lr": 1, "dropout": 0}).lr == 1


@pytest.mark.parametrize("cls, data, field", [
    (ModelConfig, {"max_len": "16"}, "max_len"),
    (ModelConfig, {"max_len": 16.0}, "max_len"),
    (ModelConfig, {"embed_trainable": 1}, "embed_trainable"),
    (ModelConfig, {"dropout": True}, "dropout"),
    (ModelConfig, {"bigru_sizes": [4, "3"]}, "bigru_sizes"),
    (ModelConfig, {"head_activation": None}, "head_activation"),
    (AblationConfig, {"cnn_filter_widths": 3}, "cnn_filter_widths"),
    (AblationConfig, {"pool_window": "4"}, "pool_window"),
])
def test_from_dict_rejects_a_value_of_the_wrong_type(cls, data, field):
    with pytest.raises(ConfigError, match=f"{cls.__name__}.{field}"):
        cls.from_dict(data)


@pytest.mark.parametrize("cls", [ModelConfig, AblationConfig])
def test_from_dict_rejects_unknown_keys_and_non_mappings(cls):
    with pytest.raises(ConfigError, match="unknown.*'typo'"):
        cls.from_dict({"typo": 1})
    with pytest.raises(ConfigError, match="mapping"):
        cls.from_dict([("max_len", 16)])
