"""Rare-object enhancement for a frozen toy vision-language model.

Plug-and-play pipeline: learn multi-modal class prototypes from an
imbalanced synthetic benchmark, refine the frozen decoder's visual tokens
through a residual cross-attention adapter, and inject top-k detected class
names into the prompt — all without touching the decoder's weights.
"""

from .adapter import AdapterConfig, VisualTokenAdapter, adapt, autoreg_loss, rec_loss
from .autodiff import GradTape, Tensor, backward, grad_check, matmul, softmax_rows
from .config import ExperimentConfig, load_config, save_config
from .embeddings import (
    ClassEmbeddingLearner,
    ClassEmbeddingTable,
    EmbeddingConfig,
    align_loss,
    class_loss,
    ema_update,
    init_class_embeddings,
    train_class_embeddings,
)
from .harness import Artifacts, EvalReport, ablation_sweep, evaluate, probe_report, report_params, run_pipeline
from .hinting import DetectionResult, ScoreMap, detect_and_answer, enrich_prompt, score_map, top_k
from .vlm import VLM, DecodeRequest, FixtureConfig, Tokenizer, VLMConfig, attention_probe, generate, logit_lens, pretrain_fixture
from .world import DatasetConfig, TextEncoder, VisionEncoder, World, adaptive_resample, crop_and_pool, generate_dataset, load_dataset

__version__ = "0.1.0"

__all__ = [
    "AdapterConfig", "VisualTokenAdapter", "adapt", "autoreg_loss", "rec_loss",
    "GradTape", "Tensor", "backward", "grad_check", "matmul", "softmax_rows",
    "ExperimentConfig", "load_config", "save_config",
    "ClassEmbeddingLearner", "ClassEmbeddingTable", "EmbeddingConfig", "align_loss", "class_loss",
    "ema_update", "init_class_embeddings", "train_class_embeddings",
    "Artifacts", "EvalReport", "ablation_sweep", "evaluate", "probe_report",
    "report_params", "run_pipeline",
    "DetectionResult", "ScoreMap", "detect_and_answer",
    "enrich_prompt", "score_map", "top_k",
    "VLM", "DecodeRequest", "FixtureConfig", "Tokenizer", "VLMConfig", "attention_probe",
    "generate", "logit_lens", "pretrain_fixture",
    "DatasetConfig", "TextEncoder", "VisionEncoder", "World",
    "adaptive_resample", "crop_and_pool", "generate_dataset", "load_dataset",
    "__version__",
]
