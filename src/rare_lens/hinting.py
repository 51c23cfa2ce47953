"""Object-aware detection with class prototypes and top-k prompt hints.

The prototype table doubles as a detector bank: projected patch tokens are
scored against every class by cosine, each class keeps its best patch as a
global relevance score, and the top-k class names are appended to the prompt
as ``[Detected: ...]``. Inference modes switch the visual refinement and the
hint injection independently, mirroring the ablation arms. The arms that
answer one scene share its work through a SceneContext, and their answers
decode together: one prefix trie per scene (vlm.generate), prefilled in one
pass, then one pass per step.
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
from .vlm import VLM, DecodeRequest, Tokenizer, build_prompts, connector, generate
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
    """Inference work that the arms answering one scene share.

    `arms` lists the (mode, k) arms that will answer the scene; asking for
    another raises ContractError. detect_and_answer(..., scene=ctx) fills
    the context lazily, inside the first call that needs each part: the
    score map, the connector tokens, the refined tokens, every arm's
    detection and prompt (vlm.build_prompts), and the answers of every arm
    on the list, from one vlm.generate call with one request per arm. The
    arms that read one set of visual tokens pass one Tensor, so the trie
    holds their visual, bos and question rows once; the hint suffixes
    follow the question, so k-sweep prompts also share their leading hints,
    and arms that send equal prompts decode once. A context serves one
    scene and one set of artifacts; drop it after the scene.
    """

    scene_id: str
    arms: list[tuple[str, int]]
    parts: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = [mode for mode, _ in self.arms if mode not in MODES]
        if unknown:
            raise ContractError(f"unknown modes {unknown}; expected some of {MODES}")

    def get(self, key, make: Callable):
        if key not in self.parts:
            self.parts[key] = make()
        return self.parts[key]


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
    with the other arms of this scene comes from (or goes into) the
    context, and the first call that decodes answers every arm on its list;
    without it, this arm is a context of its own and decodes alone.
    """
    if mode not in MODES:
        raise ContractError(f"unknown mode {mode!r}; expected one of {MODES}")
    ctx = SceneContext(meta.scene_id, [(mode, k)]) if scene is None else scene
    if ctx.scene_id != meta.scene_id:
        raise ContractError(f"scene context of {ctx.scene_id} used for {meta.scene_id}")
    if (mode, k) not in ctx.arms:
        raise ContractError(f"arm ({mode!r}, {k}) is not among the context's arms {ctx.arms}")
    table = learner.table_
    smap = ctx.get("score_map", lambda: score_map(grid, encoder, learner.heads_, table))
    v = ctx.get("visual", lambda: connector(vlm, encoder.encode(grid)).array)

    def tokens(refine: bool) -> np.ndarray:
        if not refine:
            return v
        if adapter is None:
            raise ContractError("refined modes need a trained adapter")
        if adapter.table_crc_ != table.pair_token:
            raise PairingError("adapter was trained against a different class table")
        return ctx.get("refined", lambda: adapter.transform(v, table))

    def plan_arms() -> dict:
        """Per arm: its detection, whether it reads refined tokens, its prompt text and ids."""
        detections = {kk: top_k(smap, kk, table.class_names)
                      for kk in dict.fromkeys(kk for _, kk in ctx.arms)}
        hints = [detections[kk].names if arm_mode in ("hints-only", "full")
                 else table.class_names if arm_mode == "all-classes-hints" else []
                 for arm_mode, kk in ctx.arms]
        prompts = build_prompts(tokenizer, v.shape[0], meta.question, hints)
        return {(arm_mode, kk): (detections[kk], arm_mode in ("visual-only", "full"),
                                 enrich_prompt(meta.question, names), prompt)
                for (arm_mode, kk), names, prompt in zip(ctx.arms, hints, prompts)}

    def answer_every_arm() -> dict:
        visuals: dict = {}  # refined? -> one Tensor, so its arms share trie rows
        requests = []
        for arm in ctx.arms:
            _, refine, _, prompt = arms[arm]
            if refine not in visuals:
                visuals[refine] = ad.Tensor(tokens(refine))
            requests.append(DecodeRequest(visuals[refine], prompt))
        return dict(zip(ctx.arms, generate(vlm, requests, max_len)))

    arms = ctx.get("arms", plan_arms)
    detection, refine, prompt_text, _ = arms[mode, k]
    v_hat = tokens(refine)
    generated = ctx.get(("answers", max_len), answer_every_arm)[mode, k]
    answer_text = tokenizer.decode([t for t in generated if t != tokenizer.eos])
    correct = tokenizer.index.get(meta.answer) in generated
    return InferenceOutput(
        generated, answer_text, prompt_text, detection, v_hat, bool(correct)
    )
