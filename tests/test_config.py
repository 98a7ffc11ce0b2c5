import json
import re

import pytest
from hypothesis import given, settings

from bgcapsule.config import AblationConfig, ModelConfig, load_config_file, run_entries, save_config_file
from bgcapsule.errors import ConfigError

from conftest import DEEP, loads_or_names, mangled, toy_config


def write_config(tmp_path, text):
    path = tmp_path / "run.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_config_file_round_trip(tmp_path):
    cfg = toy_config(bigru_sizes=[7, 5], lr=0.125, truncate_keep="last")
    ab = AblationConfig(variant="cnn_capsule", cnn_filter_widths=[2, 5], cnn_filter_count=3,
                        pool_window=2)
    path = tmp_path / "run.json"
    save_config_file(cfg, ab, path)
    assert load_config_file(path) == (cfg, ab)


def test_config_file_fields_left_out_take_their_defaults(tmp_path):
    path = write_config(tmp_path, '{"config": {"max_len": 16}, "ablation": {}}')
    assert load_config_file(path) == (ModelConfig(max_len=16), AblationConfig())


@pytest.mark.parametrize("text, unknown", [
    ('{"config": {"max_len": 16, "learning_rate": 0.1}, "ablation": {}}', "learning_rate"),
    ('{"config": {}, "ablation": {"variant": "cnn_capsule", "widths": [3]}}', "widths"),
    ('{"config": {}, "ablation": {}, "sweep": 1}', "sweep"),
], ids=["config", "ablation", "top_level"])
def test_config_file_unknown_key_names_path(tmp_path, text, unknown):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: ") + f"unknown.*'{unknown}'"):
        load_config_file(path)


@pytest.mark.parametrize("key, value", [("max_len", 1.5), ("dropout", "half"),
                                        ("bigru_sizes", [4, "x"]), ("embed_trainable", "maybe"),
                                        ("head_activation", "selu"),
                                        ("softmax_axis", "input_caps")],
                         ids=["max_len", "dropout", "bigru_sizes", "embed_trainable",
                              "head_activation", "softmax_axis"])
def test_config_file_bad_value_names_path_and_field(tmp_path, key, value):
    text = json.dumps({"config": {"seed": 3, key: value}, "ablation": {}})
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: ModelConfig.{key} must be")):
        load_config_file(path)


def test_config_file_rejects_non_finite_lr(tmp_path):
    for literal in ("NaN", "Infinity", "1" + "0" * 400):  # the last is an int, past float range
        path = write_config(tmp_path, f'{{"config": {{"lr": {literal}}}, "ablation": {{}}}}')
        with pytest.raises(ConfigError, match=re.escape(f"{path}: lr must be positive")):
            load_config_file(path)


def test_config_file_rejects_a_negative_seed(tmp_path):
    path = write_config(tmp_path, '{"config": {"seed": -1}, "ablation": {}}')
    with pytest.raises(ConfigError, match=re.escape(f"{path}: seed must be >= 0")):
        load_config_file(path)


@pytest.mark.parametrize("text, repeated", [
    ('{"config": {"lr": 0.1, "lr": 0.01}, "ablation": {}}', "lr"),
    ('{"config": {}, "ablation": {}, "config": {"lr": 0.01}}', "config"),
], ids=["nested", "top_level"])
def test_config_file_rejects_a_repeated_key(tmp_path, text, repeated):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: repeated keys: ['{repeated}']")):
        load_config_file(path)


@pytest.mark.parametrize("text, message", [
    ("lr = 0.1\n", "Expecting value"),
    ("[1, 2]", "needs a mapping"),
    ('{"config": {}}', "needs a mapping with the keys ['config', 'ablation']"),
    ('{"config": [], "ablation": {}}', "ModelConfig needs a mapping"),
    (DEEP.decode(), "maximum recursion depth"),
], ids=["flat_format", "list", "no_ablation", "config_as_list", "nested_too_deep"])
def test_config_file_that_is_not_the_json_pair_names_path(tmp_path, text, message):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
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


def test_config_file_with_the_retired_keys_at_their_values_loads(tmp_path):
    path = write_config(tmp_path, '{"config": {"max_len": 16, "head_activation": "relu", '
                                  '"softmax_axis": "output_caps", "share_pair_weights": true}, '
                                  '"ablation": {}}')
    assert load_config_file(path) == (ModelConfig(max_len=16), AblationConfig())
    assert not {"head_activation", "softmax_axis"} & set(ModelConfig().to_dict())


@pytest.mark.parametrize("value", [False, 1, "true", None])
def test_config_file_asking_for_per_pair_weights_names_path_and_key(tmp_path, value):
    text = json.dumps({"config": {"share_pair_weights": value}, "ablation": {}})
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError,
                       match=re.escape(f"{path}: ModelConfig.share_pair_weights must be true")):
        load_config_file(path)


def test_config_file_with_a_byte_order_mark_loads(tmp_path):
    path = write_config(tmp_path, '\ufeff{"config": {"max_len": 16}, "ablation": {}}')
    assert load_config_file(path) == (ModelConfig(max_len=16), AblationConfig())


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.json"


CONFIG_FILE = json.dumps(run_entries(toy_config(), AblationConfig()), indent=2).encode()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(blob=mangled(CONFIG_FILE))
def test_mangled_config_file_loads_or_raises_naming_it(fuzz_path, blob):
    fuzz_path.write_bytes(blob)
    loads_or_names(lambda: load_config_file(fuzz_path), fuzz_path)
