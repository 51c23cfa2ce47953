"""Experiment configuration: a strict-schema JSON tree over module configs.

A run is a pure function of (config, seed). Defaults carry the documented
operating point: EMA coefficient 0.95, top-k of 3, learning rate 1e-4 with
weight decay 0.01 for the embedding and adapter stages, 20 embedding epochs
(split 10 + 10) and 10 adapter epochs at batch size one. Unknown keys and
values of the wrong type are rejected so typos cannot silently fall back to
defaults. The dataset, fixture, embeddings and adapter sections live next to
the code they configure, which takes them whole: generate_dataset,
pretrain_fixture, ClassEmbeddingLearner and VisualTokenAdapter.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from .adapter import AdapterConfig
from .base import from_json
from .embeddings import EmbeddingConfig
from .errors import ConfigError
from .hinting import MODES
from .vlm import FixtureConfig
from .world import DatasetConfig


@dataclass(frozen=True)
class InferenceConfig:
    k: int = 3
    mode: str = "full"
    max_answer_len: int = 3


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    fixture: FixtureConfig = field(default_factory=FixtureConfig)
    embeddings: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    adapter: AdapterConfig = field(default_factory=AdapterConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)

    def validate(self) -> "ExperimentConfig":
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.dataset.validate()
        # The shortest fixture sequence: the visual rows, <bos>, one question
        # token, the answer name and <eos>.
        shortest = self.dataset.grid**2 + 4
        if self.fixture.vlm.context < shortest:
            raise ConfigError(
                f"fixture.vlm.context {self.fixture.vlm.context} is shorter than the "
                f"shortest fixture sequence, {shortest} tokens at dataset.grid "
                f"{self.dataset.grid}"
            )
        if self.embeddings.dim != self.fixture.vlm.dim:
            raise ConfigError(
                f"embedding dim {self.embeddings.dim} must equal the decoder "
                f"dim {self.fixture.vlm.dim}"
            )
        if self.inference.mode not in MODES:
            raise ConfigError(f"unknown inference mode {self.inference.mode!r}")
        if self.inference.k < 1:
            raise ConfigError("inference.k must be >= 1")
        if self.fixture.vlm.dim % self.adapter.heads:
            raise ConfigError(
                f"adapter.heads {self.adapter.heads} must divide the decoder "
                f"dim {self.fixture.vlm.dim}"
            )
        return self


def config_from_dict(doc: dict) -> ExperimentConfig:
    return from_json(ExperimentConfig, doc, "").validate()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(doc)


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=1, sort_keys=True))


def config_hash(obj) -> str:
    """Stable digest of any config dataclass (or JSON-able structure)."""
    doc = asdict(obj) if is_dataclass(obj) else obj
    return hashlib.blake2b(
        json.dumps(doc, sort_keys=True).encode(), digest_size=8
    ).hexdigest()
