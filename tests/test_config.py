"""Strict config schema: defaults, rejection of unknown keys, round trips."""

import json

import pytest

from rare_lens.config import (
    ExperimentConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    save_config,
)
from rare_lens.errors import ConfigError


def test_defaults_follow_documented_operating_point():
    cfg = ExperimentConfig().validate()
    assert cfg.embeddings.kappa == 0.95
    assert cfg.inference.k == 3
    assert cfg.embeddings.lr == 1e-4 and cfg.embeddings.weight_decay == 0.01
    assert cfg.adapter.lr == 1e-4 and cfg.adapter.weight_decay == 0.01
    assert cfg.embeddings.epochs_align + cfg.embeddings.epochs_joint == 20
    assert cfg.adapter.epochs == 10
    assert cfg.dataset.n_classes == 12 and cfg.dataset.rare_count == 4


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys.*bogus"):
        config_from_dict({"bogus": 1})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="dataset.*typo"):
        config_from_dict({"dataset": {"typo": 3}})
    with pytest.raises(ConfigError, match="fixture.vlm"):
        config_from_dict({"fixture": {"vlm": {"dims": 8}}})


def test_round_trip_file(tmp_path):
    cfg = config_from_dict({"seed": 9, "inference": {"k": 5}})
    path = tmp_path / "config.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.inference.k == 5 and loaded.seed == 9


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_dim_mismatch_rejected():
    with pytest.raises(ConfigError, match="dim"):
        config_from_dict({"embeddings": {"dim": 32}})


def test_bad_mode_and_k_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"inference": {"mode": "spicy"}})
    with pytest.raises(ConfigError):
        config_from_dict({"inference": {"k": 0}})


def test_config_hash_stable_and_sensitive():
    a = config_hash(ExperimentConfig())
    b = config_hash(ExperimentConfig())
    c = config_hash(config_from_dict({"seed": 1}))
    assert a == b != c


def test_to_dict_contains_all_sections():
    doc = config_to_dict(ExperimentConfig())
    assert set(doc) == {"seed", "dataset", "fixture", "embeddings", "adapter", "inference"}
    assert json.dumps(doc)  # JSON-serializable


def test_scalar_types_checked_against_defaults():
    cfg = config_from_dict({"embeddings": {"lr": 1}, "dataset": {"vision_identity": True}})
    assert cfg.embeddings.lr == 1 and cfg.dataset.vision_identity is True
    with pytest.raises(ConfigError, match="out of range"):
        config_from_dict({"embeddings": {"lr": 10**400}})
    for doc in ({"inference": {"k": True}}, {"inference": {"k": 3.0}},
                {"embeddings": {"lr": False}}, {"inference": {"mode": 3}},
                {"dataset": {"vision_identity": 1}}):
        with pytest.raises(ConfigError, match="expected"):
            config_from_dict(doc)


def test_int_for_a_float_field_hashes_like_the_float():
    as_int = config_from_dict({"embeddings": {"lr": 1}})
    as_float = config_from_dict({"embeddings": {"lr": 1.0}})
    assert isinstance(as_int.embeddings.lr, float)
    assert config_hash(as_int.embeddings) == config_hash(as_float.embeddings)
    assert config_hash(as_int) == config_hash(as_float)
    assert config_to_dict(as_int) == config_to_dict(as_float)


def test_adapter_heads_must_divide_decoder_dim():
    with pytest.raises(ConfigError, match="heads"):
        config_from_dict({"adapter": {"heads": 7}})

