"""Detection score maps, top-k selection, prompt enrichment, inference modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rare_lens import hinting as H
from rare_lens import vlm as V
from rare_lens.adapter import AdapterConfig, VisualTokenAdapter
from rare_lens.autodiff import Tensor
from rare_lens.embeddings import ClassEmbeddingTable, init_heads
from rare_lens.errors import ContractError, PairingError
from rare_lens.prompting import QUESTION_TEMPLATES
from rare_lens.world import VisionEncoder

RNG = np.random.default_rng(31)


def make_map(relevance):
    r = np.asarray(relevance, dtype=np.float64)
    return H.ScoreMap(r[None, :], r, np.zeros(len(r), dtype=int))


def test_score_map_identity_and_orthogonal_rows(mini_world):
    encoder = VisionEncoder.for_world(mini_world)
    heads = init_heads(16, 16, 32, seed=0)
    grid = mini_world.grid(mini_world.manifest.train_ids[0])
    projected = heads.project_visual(encoder.encode(grid)).array
    w0 = projected[3]
    w1 = w0.copy()
    w1[:] = RNG.normal(size=32)
    w1 -= (w1 @ w0) / (w0 @ w0) * w0  # orthogonal to the projected token
    table = ClassEmbeddingTable(Tensor(np.stack([w0, w1])), ["a", "b"], 0.95)
    heads.pair_token = table.pair_token = 777
    smap = H.score_map(grid, encoder, heads, table)
    assert abs(smap.scores[3, 0] - 1.0) < 1e-12
    assert abs(smap.scores[3, 1]) < 1e-12
    assert np.all(smap.scores >= -1.0) and np.all(smap.scores <= 1.0)


def test_score_map_matches_double_loop_oracle(mini_world):
    encoder = VisionEncoder.for_world(mini_world)
    heads = init_heads(16, 16, 32, seed=1)
    table = ClassEmbeddingTable(Tensor(RNG.normal(size=(3, 32))), list("abc"), 0.95)
    heads.pair_token = table.pair_token = 1
    grid = mini_world.grid(mini_world.manifest.train_ids[1])
    smap = H.score_map(grid, encoder, heads, table)
    projected = heads.project_visual(encoder.encode(grid)).array
    for i in range(projected.shape[0]):
        for c in range(3):
            a, b = projected[i], table.w.array[c]
            expect = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert abs(smap.scores[i, c] - expect) < 1e-12
    assert np.array_equal(smap.relevance, smap.scores.max(axis=0))
    assert np.array_equal(smap.argmax_patch, smap.scores.argmax(axis=0))


def test_score_map_rejects_unpaired_artifacts(mini_world):
    encoder = VisionEncoder.for_world(mini_world)
    heads = init_heads(16, 16, 32, seed=0)
    table = ClassEmbeddingTable(Tensor(RNG.normal(size=(2, 32))), ["a", "b"], 0.95)
    heads.pair_token, table.pair_token = 1, 2
    with pytest.raises(PairingError):
        H.score_map(mini_world.grid(mini_world.manifest.train_ids[0]), encoder, heads, table)


def test_top_k_saturates_at_class_count():
    det = H.top_k(make_map([0.1, 0.9, 0.5]), k=10, class_names=list("abc"))
    assert det.class_ids == [1, 2, 0]
    assert det.scores == sorted(det.scores, reverse=True)


def test_top_k_tie_breaks_by_class_id():
    det = H.top_k(make_map([0.5, 0.9, 0.5]), k=3, class_names=list("abc"))
    assert det.class_ids == [1, 0, 2]


def test_top_k_rejects_k_zero():
    with pytest.raises(ContractError):
        H.top_k(make_map([0.5]), k=0, class_names=["a"])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=1, max_size=12), st.integers(1, 12))
def test_top_k_matches_full_sort_oracle(scores, k):
    names = [f"c{i}" for i in range(len(scores))]
    det = H.top_k(make_map(scores), k, names)
    oracle = sorted(range(len(scores)), key=lambda c: (-scores[c], c))[: min(k, len(scores))]
    assert det.class_ids == oracle


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=2, max_size=9))
def test_top_k_detection_sets_are_nested_in_k(scores):
    names = [f"c{i}" for i in range(len(scores))]
    previous: set = set()
    for k in range(1, len(scores) + 1):
        current = set(H.top_k(make_map(scores), k, names).class_ids)
        assert previous <= current
        previous = current


def test_enrich_prompt_template_bytes():
    out = H.enrich_prompt("Describe the object.", ["bollard", "cone", "barrier"])
    assert out == "Describe the object. [Detected: bollard, cone, barrier]"
    assert H.enrich_prompt("Describe the object.", []) == "Describe the object."
    assert H.enrich_prompt("x ?", ["stroller"]) == "x ? [Detected: stroller]"


def test_enrich_prompt_not_idempotent_by_design():
    once = H.enrich_prompt("q", ["a"])
    twice = H.enrich_prompt(once, ["a"])
    assert twice == "q [Detected: a] [Detected: a]"


def test_build_prompts_equals_building_each_enriched_prompt(rare_world):
    tokenizer = V.Tokenizer.build(rare_world)
    names = rare_world.manifest.names
    hint_lists = [names[:c] for c in range(len(names) + 1)]
    hint_lists += [names[::-1], [], names[:1]]  # another order, and repeats
    for question in QUESTION_TEMPLATES:
        for n_visual in (0, 4):
            assert V.build_prompts(tokenizer, n_visual, question, hint_lists) == [
                V.build_prompt(tokenizer, n_visual, H.enrich_prompt(question, hints))
                for hints in hint_lists]


@pytest.fixture(scope="module")
def inference_stack(mini_world, mini_fixture, mini_learner, mini_adapter):
    model, tokenizer, _ = mini_fixture
    learner, _ = mini_learner
    encoder = VisionEncoder.for_world(mini_world)
    return mini_world, encoder, learner, mini_adapter, model, tokenizer


def test_baseline_mode_matches_plain_generation_byte_for_byte(inference_stack):
    world, encoder, learner, adapter, model, tokenizer = inference_stack
    meta = world.scenes("test")[0]
    grid = world.grid(meta.scene_id)
    out = H.detect_and_answer(
        meta, grid, encoder, learner, adapter, model, tokenizer, mode="baseline"
    )
    v = V.connector(model, encoder.encode(grid))
    prompt = V.build_prompt(tokenizer, v.shape[0], meta.question)
    assert out.generated == V.generate(model, [V.DecodeRequest(v, prompt)], 3)[0]
    assert out.prompt_text == meta.question


def test_identity_adapter_visual_mode_matches_baseline(inference_stack):
    world, encoder, learner, _, model, tokenizer = inference_stack
    identity = VisualTokenAdapter(AdapterConfig(heads=2, epochs=0), seed=0)
    identity.fit(world, learner.table_, model, tokenizer)
    meta = world.scenes("test")[1]
    grid = world.grid(meta.scene_id)
    base = H.detect_and_answer(
        meta, grid, encoder, learner, identity, model, tokenizer, mode="baseline"
    )
    vis = H.detect_and_answer(
        meta, grid, encoder, learner, identity, model, tokenizer, mode="visual-only"
    )
    assert vis.generated == base.generated
    assert np.array_equal(
        vis.refined,
        V.connector(model, encoder.encode(grid)).array,
    )


def test_all_classes_mode_appends_every_name(inference_stack):
    world, encoder, learner, adapter, model, tokenizer = inference_stack
    meta = world.scenes("test")[2]
    out = H.detect_and_answer(
        meta, world.grid(meta.scene_id), encoder, learner, adapter, model,
        tokenizer, mode="all-classes-hints",
    )
    names = ", ".join(learner.table_.class_names)
    assert out.prompt_text == f"{meta.question} [Detected: {names}]"


def test_hints_mode_uses_topk_names(inference_stack):
    world, encoder, learner, adapter, model, tokenizer = inference_stack
    meta = world.scenes("test")[3]
    out = H.detect_and_answer(
        meta, world.grid(meta.scene_id), encoder, learner, adapter, model,
        tokenizer, k=1, mode="hints-only",
    )
    assert out.prompt_text == f"{meta.question} [Detected: {out.detection.names[0]}]"
    assert len(out.detection) == 1


def test_unknown_mode_and_adapter_pairing_errors(inference_stack):
    world, encoder, learner, adapter, model, tokenizer = inference_stack
    meta = world.scenes("test")[0]
    grid = world.grid(meta.scene_id)
    with pytest.raises(ContractError):
        H.detect_and_answer(meta, grid, encoder, learner, adapter, model, tokenizer, mode="wat")
    stale = VisualTokenAdapter(AdapterConfig(heads=2, epochs=0), seed=0)
    stale.fit(world, learner.table_, model, tokenizer)
    stale.table_crc_ = 424242
    with pytest.raises(PairingError):
        H.detect_and_answer(
            meta, grid, encoder, learner, stale, model, tokenizer, mode="full"
        )


def test_scene_context_shares_work_and_keeps_answers(inference_stack):
    world, encoder, learner, adapter, model, tokenizer = inference_stack
    meta = world.scenes("test")[4]
    grid = world.grid(meta.scene_id)
    scene = H.SceneContext(meta.scene_id, [(mode, 3) for mode in H.MODES])
    for mode in H.MODES:
        alone = H.detect_and_answer(
            meta, grid, encoder, learner, adapter, model, tokenizer, mode=mode
        )
        shared = H.detect_and_answer(
            meta, grid, encoder, learner, adapter, model, tokenizer, mode=mode, scene=scene
        )
        assert shared.generated == alone.generated
        assert shared.prompt_text == alone.prompt_text
    assert set(scene.parts) == {"score_map", "visual", "refined", "arms", ("answers", 3)}


def test_scene_context_rejects_another_scene(inference_stack):
    world, encoder, learner, adapter, model, tokenizer = inference_stack
    first, second = world.scenes("test")[:2]
    with pytest.raises(ContractError):
        H.detect_and_answer(
            second, world.grid(second.scene_id), encoder, learner, adapter, model,
            tokenizer, mode="baseline", scene=H.SceneContext(first.scene_id, [("baseline", 3)]),
        )
