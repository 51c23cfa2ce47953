"""Experiment configuration: a strict-schema JSON tree over module configs.

A run is a pure function of (config, seed). Defaults carry the documented
operating point: EMA coefficient 0.95, top-k of 3, learning rate 1e-4 with
weight decay 0.01 for the embedding and adapter stages, 20 embedding epochs
(split 10 + 10) and 10 adapter epochs at batch size one. Unknown keys are
rejected so typos cannot silently fall back to defaults. The pipeline builds
each estimator from its section: AdapterConfig holds exactly the adapter's
parameters but the seed, EmbeddingConfig the learner's plus budget and gate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .embeddings import EmbeddingConfig
from .errors import ConfigError
from .vlm import FixtureConfig
from .world import ImbalanceProfile


@dataclass(frozen=True)
class DatasetConfig:
    n_classes: int = 12
    grid: int = 5
    d_v: int = 32
    d_t: int = 32
    rare_count: int = 4
    rare_n: int = 5
    common_n: int = 200
    test_per_class: int = 20
    alpha: float = 8.0
    noise: float = 1.0
    vision_identity: bool = False

    def profile(self) -> ImbalanceProfile:
        return ImbalanceProfile(
            rare_count=self.rare_count,
            rare_n=self.rare_n,
            common_n=self.common_n,
            test_per_class=self.test_per_class,
        )


@dataclass(frozen=True)
class AdapterConfig:
    heads: int = 4
    epochs: int = 10
    lr: float = 1e-4
    weight_decay: float = 0.01
    rec_weight: float = 1.0
    autoreg_weight: float = 1.0
    supervise: str = "answer"
    per_class_cap: int = 10
    rare_boost: int = 12


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
        if self.embeddings.dim != self.fixture.vlm.dim:
            raise ConfigError(
                f"embedding dim {self.embeddings.dim} must equal the decoder "
                f"dim {self.fixture.vlm.dim}"
            )
        if self.inference.mode not in (
            "baseline", "visual-only", "hints-only", "all-classes-hints", "full"
        ):
            raise ConfigError(f"unknown inference mode {self.inference.mode!r}")
        if self.adapter.supervise not in ("answer", "all"):
            raise ConfigError("adapter.supervise must be 'answer' or 'all'")
        if self.fixture.distractor_pool not in ("all", "common"):
            raise ConfigError("fixture.distractor_pool must be 'all' or 'common'")
        if self.inference.k < 1:
            raise ConfigError("inference.k must be >= 1")
        if self.fixture.vlm.dim % self.adapter.heads:
            raise ConfigError(
                f"adapter.heads {self.adapter.heads} must divide the decoder "
                f"dim {self.fixture.vlm.dim}"
            )
        return self


def _build(cls, doc: dict, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    known = {f.name: f for f in fields(cls)}
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in doc.items():
        section = known[name].default_factory  # a nested config class, or MISSING
        if is_dataclass(section):
            kwargs[name] = _build(section, value, f"{path}.{name}" if path else name)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, doc, "").validate()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
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
