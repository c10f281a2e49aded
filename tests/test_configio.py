"""Model config round trips, strict key checking and JSON document loading."""

import pytest

from specsal.configio import load_json_document, model_config_from_dict, model_config_to_dict
from specsal.exceptions import ConfigError
from specsal.model import demo_model_config, default_model_config, tiny_model_config


@pytest.mark.parametrize(
    "config",
    [tiny_model_config(), demo_model_config(), default_model_config()],
    ids=["tiny", "demo", "default"],
)
def test_model_config_round_trip(config):
    assert model_config_from_dict(model_config_to_dict(config)) == config


def test_model_config_partial_documents_use_defaults():
    config = model_config_from_dict({"stem_stride": 1})
    assert config.stem_stride == 1
    assert config.encoder == default_model_config().encoder


def test_model_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        model_config_from_dict({"stem_strid": 1})
    with pytest.raises(ConfigError, match="encoder"):
        model_config_from_dict({"encoder": {"band": 8}})
    # a demo sidecar written while the branch layout and band group were settable
    old_sidecar = {
        "backbone": {"blocks_per_branch": 1, "fusion_stages": 1, "stem_stride": 1,
                     "widths": [8, 16, 32, 64]},
        "decoder": {"attention_width": 16, "grid": 4},
        "encoder": {"band_group": 4, "bands": 8, "blocks": 1, "heads": 1},
        "input_size": 32,
    }
    with pytest.raises(ConfigError, match=r"unknown keys \['backbone', 'input_size'\]"):
        model_config_from_dict(old_sidecar)
    del old_sidecar["backbone"]
    with pytest.raises(ConfigError, match=r"model config: unknown keys \['input_size'\]"):
        model_config_from_dict(old_sidecar)
    del old_sidecar["input_size"]
    with pytest.raises(ConfigError, match=r"model config.encoder: unknown keys \['band_group'\]"):
        model_config_from_dict(old_sidecar)
    # a demo sidecar written while the config fixed the cube's size: no shim
    # takes the key, and without it the sidecar decodes to the demo config
    sized_sidecar = dict(model_config_to_dict(demo_model_config()), input_size=32)
    with pytest.raises(ConfigError, match=r"model config: unknown keys \['input_size'\]"):
        model_config_from_dict(sized_sidecar)
    del sized_sidecar["input_size"]
    assert model_config_from_dict(sized_sidecar) == demo_model_config()


def test_model_config_rejects_wrong_shapes():
    with pytest.raises(ConfigError, match="expected an object"):
        model_config_from_dict([1, 2])
    with pytest.raises(ConfigError, match="expected an object"):
        model_config_from_dict({"decoder": 7})


def test_model_config_values_still_validated():
    with pytest.raises(ConfigError, match="stem stride must be >= 1, got 0"):
        model_config_from_dict({"stem_stride": 0})
    with pytest.raises(ConfigError, match="grid must be at most 32, got 64"):
        model_config_from_dict({"decoder": {"grid": 64}})


def test_load_json_document_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="nope.json"):
        load_json_document(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_json_document(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_json_document(array)


def test_load_json_document_reads_objects(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text('{"steps": 5}')
    assert load_json_document(path) == {"steps": 5}
