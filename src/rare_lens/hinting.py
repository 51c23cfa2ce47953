"""Object-aware detection with class prototypes and top-k prompt hints.

The prototype table doubles as a detector bank: projected patch tokens are
scored against every class by cosine, each class keeps its best patch as a
global relevance score, and the top-k class names are appended to the prompt
as ``[Detected: ...]``. Inference modes switch the visual refinement and the
hint injection independently, mirroring the ablation arms. Arms that answer
the same scene can share its work through a SceneContext.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from .adapter import VisualTokenAdapter
from .embeddings import ClassEmbeddingLearner, ClassEmbeddingTable, ProjectionHeads
from .errors import ContractError, PairingError
from .prompting import enrich_prompt
from .vlm import VLM, KVCache, Tokenizer, TokenSequence, build_prompt, connector, forward, generate
from .world import SceneMeta, VisionEncoder

MODES = ("baseline", "visual-only", "hints-only", "all-classes-hints", "full")

__all__ = [
    "MODES",
    "ScoreMap",
    "DetectionResult",
    "enrich_prompt",
    "score_map",
    "top_k",
    "InferenceOutput",
    "SceneContext",
    "detect_and_answer",
]


@dataclass
class ScoreMap:
    """Patch-by-class cosine scores with per-class maxima."""

    scores: np.ndarray  # [M, C], entries in [-1, 1]
    relevance: np.ndarray  # [C], column maxima
    argmax_patch: np.ndarray  # [C], patch index attaining each maximum


@dataclass
class DetectionResult:
    """Top-k classes by relevance, descending; ties break to lower class id."""

    names: list[str]
    class_ids: list[int]
    scores: list[float]

    def __len__(self) -> int:
        return len(self.class_ids)


def score_map(
    grid: np.ndarray,
    encoder: VisionEncoder,
    heads: ProjectionHeads,
    table: ClassEmbeddingTable,
) -> ScoreMap:
    """Project every encoded patch token and score it against each prototype."""
    if heads.pair_token != table.pair_token:
        raise PairingError(
            f"projection heads (run {heads.pair_token}) and class table "
            f"(run {table.pair_token}) come from different training runs"
        )
    tokens = encoder.encode(grid)
    projected = heads.project_visual(tokens)
    scores = ad.cosine_matrix(projected, table.w).array
    return ScoreMap(scores, scores.max(axis=0), scores.argmax(axis=0))


def top_k(smap: ScoreMap, k: int, class_names: list[str]) -> DetectionResult:
    if k < 1:
        raise ContractError("k must be at least 1")
    order = sorted(range(len(smap.relevance)), key=lambda c: (-smap.relevance[c], c))
    picked = order[: min(k, len(order))]
    return DetectionResult(
        [class_names[c] for c in picked],
        picked,
        [float(smap.relevance[c]) for c in picked],
    )


@dataclass
class InferenceOutput:
    generated: list[int]
    answer_text: str
    prompt_text: str
    detection: DetectionResult
    refined: np.ndarray  # [M, dim] visual tokens the decoder read
    correct: bool


@dataclass
class SceneContext:
    """Inference work that every arm answering one scene can share.

    detect_and_answer(..., scene=ctx) fills it lazily, inside the first call
    that needs each part: the score map, the connector tokens, the refined
    tokens, and for the plain and the refined visual block the K/V of the
    prompt prefix [visual, bos, question minus its last token]. Hint
    suffixes follow the question, so every arm's prompt extends that prefix,
    and stopping one token short leaves each arm at least one row to run.
    A context serves one scene and one set of artifacts; drop it after the
    scene.
    """

    scene_id: str
    parts: dict = field(default_factory=dict)

    def get(self, key, make: Callable):
        if key not in self.parts:
            self.parts[key] = make()
        return self.parts[key]


def _prefix_kv(vlm: VLM, tokenizer: Tokenizer, visual: np.ndarray, question: str) -> KVCache:
    full = build_prompt(tokenizer, visual.shape[0], question)
    return forward(vlm, ad.Tensor(visual), TokenSequence(full.ids[:-1], full.roles[:-1])).kv


def detect_and_answer(
    meta: SceneMeta,
    grid: np.ndarray,
    encoder: VisionEncoder,
    learner: ClassEmbeddingLearner,
    adapter: VisualTokenAdapter | None,
    vlm: VLM,
    tokenizer: Tokenizer,
    k: int = 3,
    mode: str = "full",
    max_len: int = 3,
    scene: SceneContext | None = None,
) -> InferenceOutput:
    """One-scene inference with independently switchable enhancement modes.

    baseline: original tokens, plain prompt. visual-only: refined tokens.
    hints-only: top-k hint suffix. all-classes-hints: every class name as a
    hint. full: refined tokens plus top-k hints. With `scene`, work shared
    with the other arms of this scene comes from (or goes into) the context.
    """
    if mode not in MODES:
        raise ContractError(f"unknown mode {mode!r}; expected one of {MODES}")
    ctx = SceneContext(meta.scene_id) if scene is None else scene
    if ctx.scene_id != meta.scene_id:
        raise ContractError(f"scene context of {ctx.scene_id} used for {meta.scene_id}")
    table = learner.table_
    smap = ctx.get("score_map", lambda: score_map(grid, encoder, learner.heads_, table))
    detection = top_k(smap, k, table.class_names)

    v = ctx.get("visual", lambda: connector(vlm, encoder.encode(grid)).array)
    refine = mode in ("visual-only", "full")
    if refine:
        if adapter is None:
            raise ContractError(f"mode {mode!r} needs a trained adapter")
        if adapter.table_crc_ != table.pair_token:
            raise PairingError(
                "adapter was trained against a different class table"
            )
        v_hat = ctx.get("refined", lambda: adapter.transform(v, table))
    else:
        v_hat = v

    if mode in ("hints-only", "full"):
        prompt_text = enrich_prompt(meta.question, detection.names)
    elif mode == "all-classes-hints":
        prompt_text = enrich_prompt(meta.question, table.class_names)
    else:
        prompt_text = meta.question

    prompt = build_prompt(tokenizer, v_hat.shape[0], prompt_text)
    if scene is None:  # nothing to share: prefill the whole prompt at once
        generated = generate(vlm, ad.Tensor(v_hat), prompt, max_len)
    else:
        past = ctx.get(("prefix", refine),
                       lambda: _prefix_kv(vlm, tokenizer, v_hat, meta.question))
        generated = generate(vlm, None, prompt, max_len, past=past)
    answer_text = tokenizer.decode([t for t in generated if t != tokenizer.eos])
    correct = tokenizer.index.get(meta.answer) in generated
    return InferenceOutput(
        generated, answer_text, prompt_text, detection, v_hat, bool(correct)
    )
