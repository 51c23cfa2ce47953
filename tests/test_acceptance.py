"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines live. The default-configuration pipeline is trained once per session
and shared by the criteria that need real artifacts.
"""

import functools
import json
import math
import shutil
import time

import numpy as np
import pytest

from rare_lens import adapter as A
from rare_lens import autodiff as ad
from rare_lens import cli
from rare_lens import embeddings as E
from rare_lens import vlm as V
from rare_lens.autodiff import GradTape, Tensor, backward, grad_check
from rare_lens.ckpt import load_adapter, load_classes, load_vlm, save_adapter, save_classes, save_vlm
from rare_lens.config import ExperimentConfig
from rare_lens.harness import Artifacts, _probe_one, ablation_sweep, probe_report, run_pipeline
from rare_lens.hinting import ScoreMap, score_map, top_k
from test_embeddings import loop_align_loss, loop_class_loss
from test_harness import MINI_DOC, mini_config


def criterion(num: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE] criterion {num} FAIL: {title}")
                raise
            print(f"\n[ACCEPTANCE] criterion {num} PASS: {title}")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# shared default-configuration artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()
    arts, report = run_pipeline(ExperimentConfig(), out)
    wall = time.perf_counter() - t0
    return out, arts, report, wall


@pytest.fixture(scope="session")
def sweep_arms(default_run):
    _, arts, _, _ = default_run
    return ablation_sweep(arts, k=3)["arms"]


def tiny_frozen_vlm(seed, vocab=7, dim=8, d_v=8):
    cfg = V.VLMConfig(layers=1, heads=2, dim=dim, ffn_hidden=16, context=32, d_v=d_v)
    model = V.init_vlm(cfg, vocab, seed=seed)
    rng = np.random.default_rng(seed + 50)
    for name, t in model.weights.items():
        if name.endswith(("wo", "w2")):
            t.assign_(rng.normal(scale=0.1, size=t.shape))
    return model.freeze()


def qa_seq(ids, n_visual, n_answer):
    roles = (
        [V.Role.VISUAL] * n_visual
        + [V.Role.PROMPT] * (len(ids) - n_visual - n_answer)
        + [V.Role.ANSWER] * n_answer
    )
    return V.TokenSequence(list(ids), roles)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


@criterion(1, "gradient suite: all five losses pass finite differences < 1e-4")
def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)

        # L_align through the projection heads.
        heads = E.init_heads(4, 4, 6, seed=seed)
        zv, zt = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        yv, yt = rng.integers(0, 2, size=3), np.array([0, 1, 0, 1, 1])

        def f_align(params):
            return E.align_loss(
                heads.project_visual(zv), heads.project_text(zt),
                yt[None, :] == yv[:, None],
            )

        assert grad_check(f_align, heads.parameters()) < 1e-4, f"L_align seed {seed}"

        # L_class through the visual head (prototype table frozen).
        table = E.ClassEmbeddingTable(Tensor(rng.normal(size=(3, 6))), list("abc"), 0.95)

        def f_class(params):
            return E.class_loss(heads.project_visual(zv), yv, table)

        assert grad_check(f_class, heads.parameters()) < 1e-4, f"L_class seed {seed}"

        # L_rec, L_autoreg, and the joint objective w.r.t. adapter weights.
        model = tiny_frozen_vlm(seed)
        params = A.init_adapter(dim=8, heads=2, seed=seed)
        params["wo"].assign_(0.2 * rng.normal(size=(8, 8)))
        v_arr = rng.normal(size=(2, 8))
        w_t = Tensor(rng.normal(size=(3, 8)))
        seq = qa_seq([0, 0, 1, 2, 3, 4], n_visual=2, n_answer=2)

        def f_rec(plist):
            v = Tensor(v_arr)
            refined, _ = A.adapt(v, w_t, params, heads=2)
            return A.rec_loss(v, refined)

        def f_auto(plist):
            v = Tensor(v_arr)
            refined, _ = A.adapt(v, w_t, params, heads=2)
            return A.autoreg_loss(refined, seq, model)

        def f_joint(plist):
            v = Tensor(v_arr)
            refined, _ = A.adapt(v, w_t, params, heads=2)
            return ad.add(A.rec_loss(v, refined), A.autoreg_loss(refined, seq, model))

        plist = list(params.values())
        assert grad_check(f_rec, plist) < 1e-4, f"L_rec seed {seed}"
        assert grad_check(f_auto, plist) < 1e-4, f"L_autoreg seed {seed}"
        assert grad_check(f_joint, plist) < 1e-4, f"L_adapter seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


@criterion(2, "loss oracles: vectorized losses match scalar loops and analytics")
def test_criterion_2_loss_oracles():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        n, t, c = rng.integers(2, 9), rng.integers(3, 17), rng.integers(2, 6)
        hv, ht = rng.normal(size=(n, 8)), rng.normal(size=(t, 8))
        yv = rng.integers(0, c, size=n)
        yt = np.concatenate([np.arange(c), rng.integers(0, c, size=t - c)])[:t]
        positives = yt[None, :] == yv[:, None]
        if (positives.sum(axis=1) == 0).any():
            continue
        got = E.align_loss(Tensor(hv), Tensor(ht), positives).item()
        assert abs(got - loop_align_loss(hv, ht, positives)) < 1e-10

        w_ = rng.normal(size=(c, 8))
        x = rng.normal(size=(n + t, 8))
        y = np.concatenate([yv, yt])
        table = E.ClassEmbeddingTable(Tensor(w_), [f"c{i}" for i in range(c)], 0.95)
        got = E.class_loss(Tensor(x), y, table).item()
        assert abs(got - loop_class_loss(x, y, w_)) < 1e-10

    # Analytic anchor cases.
    rng = np.random.default_rng(0)
    hv = Tensor(rng.normal(size=(3, 5)))
    ht = Tensor(rng.normal(size=(4, 5)))
    assert abs(E.align_loss(hv, ht, np.ones((3, 4), dtype=bool)).item()) < 1e-12
    base = rng.normal(size=5)
    table = E.ClassEmbeddingTable(Tensor(np.stack([base] * 4)), list("abcd"), 0.95)
    got = E.class_loss(Tensor(rng.normal(size=(2, 5))), [1, 3], table).item()
    assert abs(got - math.log(4)) < 1e-12


@criterion(3, "EMA properties: fixpoint, replacement, convex segment, default 0.95")
def test_criterion_3_ema_properties():
    rng = np.random.default_rng(3)
    w0 = rng.normal(size=(2, 4))
    names = ["a", "b"]
    mean = rng.normal(size=4)
    fixed = E.ema_update(E.ClassEmbeddingTable(Tensor(w0), names, 1.0), {0: mean})
    assert np.array_equal(fixed.w.array, w0)
    replaced = E.ema_update(E.ClassEmbeddingTable(Tensor(w0), names, 0.0), {0: mean})
    assert np.array_equal(replaced.w.array[0], mean)
    assert np.array_equal(replaced.w.array[1], w0[1])
    for _ in range(1000):
        kappa = float(rng.uniform())
        start = rng.normal(size=(1, 3))
        target = rng.normal(size=3)
        table = E.ClassEmbeddingTable(Tensor(start), ["x"], kappa)
        updated = E.ema_update(table, {0: target}).w.array[0]
        assert np.all(updated >= np.minimum(start[0], target) - 1e-12)
        assert np.all(updated <= np.maximum(start[0], target) + 1e-12)
    assert ExperimentConfig().embeddings.kappa == 0.95
    scalar = E.ema_update(
        E.ClassEmbeddingTable(Tensor(np.zeros((1, 1))), ["x"], 0.95), {0: np.ones(1)}
    )
    assert abs(scalar.w.array[0, 0] - 0.05) < 1e-15


@criterion(4, "adapter identity at init: refined tokens and generation unchanged")
def test_criterion_4_identity_at_init(default_run):
    _, arts, _, _ = default_run
    meta = arts.world.scenes("test")[0]
    v = V.connector(arts.vlm, arts.encoder.encode(arts.world.grid(meta.scene_id)))
    params = A.init_adapter(arts.vlm.config.dim, heads=4, seed=9)
    refined, _ = A.adapt(v, arts.learner.table_.w, params, heads=4)
    assert np.array_equal(refined.array, v.array), "refined != V bit-exactly"
    assert A.rec_loss(v, refined).item() == 0.0
    prompt = V.build_prompt(arts.tokenizer, v.shape[0], meta.question)
    both = V.generate(arts.vlm, [V.DecodeRequest(refined, prompt), V.DecodeRequest(v, prompt)], 3)
    assert both[0] == both[1]


@criterion(5, "frozen backbone: checksums stable, no gradient path into the VLM")
def test_criterion_5_frozen_backbone(default_run):
    out, arts, _, _ = default_run
    meta_doc = json.loads((out / "run_meta.json").read_text())
    recorded = meta_doc["stages"]["vlm"]["weights_crc"]
    assert arts.vlm.checksum() == recorded, "VLM changed across downstream training"

    model = tiny_frozen_vlm(4)
    params = A.init_adapter(8, 2, seed=4)
    v = Tensor(np.random.default_rng(4).normal(size=(2, 8)))
    seq = qa_seq([0, 0, 1, 2, 3], n_visual=2, n_answer=1)
    with GradTape() as tape:
        refined, _ = A.adapt(v, Tensor(np.random.default_rng(5).normal(size=(3, 8))), params, 2)
        loss = A.autoreg_loss(refined, seq, model)
    grads = backward(loss, tape)
    for name, t in model.weights.items():
        assert t.id not in grads, f"gradient leaked into frozen weight {name}"


@criterion(6, "detection: sort oracle, monotone top-k, >= 95% top-3 on held-out")
def test_criterion_6_detection(default_run):
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(1000):
        m_, c_ = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        scores = rng.uniform(-1, 1, size=(m_, c_))
        smap = ScoreMap(scores, scores.max(axis=0), scores.argmax(axis=0))
        assert np.array_equal(smap.relevance, np.max(scores, axis=0))
        k = int(rng.integers(1, c_ + 2))
        names = [f"c{i}" for i in range(c_)]
        det = top_k(smap, k, names)
        oracle = sorted(range(c_), key=lambda c: (-smap.relevance[c], c))[: min(k, c_)]
        assert det.class_ids == oracle
        hits = [int(0 in top_k(smap, kk, names).class_ids) for kk in range(1, c_ + 1)]
        assert all(b >= a for a, b in zip(hits, hits[1:])), "monotone in k"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"detection oracle suite took {elapsed:.1f}s"

    _, arts, _, _ = default_run
    m = arts.world.manifest
    hits_all, hits_rare = [], []
    for meta in arts.world.scenes("test"):
        smap = score_map(
            arts.world.grid(meta.scene_id), arts.encoder,
            arts.learner.heads_, arts.learner.table_,
        )
        det = top_k(smap, 3, m.names)
        hit = meta.class_id in det.class_ids
        hits_all.append(hit)
        if meta.class_id in m.rare_ids:
            hits_rare.append(hit)
    assert np.mean(hits_all) >= 0.95, f"top-3 detection {np.mean(hits_all):.3f}"
    assert np.mean(hits_rare) >= 0.95, f"rare top-3 detection {np.mean(hits_rare):.3f}"


@criterion(7, "end-to-end repair: gates, +25 rare points, arm ordering, < 10 min")
def test_criterion_7_end_to_end(default_run, sweep_arms):
    _, arts, report, wall = default_run
    gate = report["fixture_gate"]
    assert gate["common_accuracy"] >= 0.90
    assert gate["rare_accuracy"] <= 0.40
    arms = sweep_arms
    base, vis, full = arms["baseline"], arms["visual-only"], arms["full"]
    hints, allhints = arms["hints-only"], arms["all-classes-hints"]
    print(
        "    rare accuracy: "
        + ", ".join(f"{m}={arms[m].rare_accuracy:.3f}" for m in arms)
    )
    print(
        "    aggregate:     "
        + ", ".join(f"{m}={arms[m].aggregate_accuracy:.3f}" for m in arms)
    )
    assert full.rare_accuracy >= base.rare_accuracy + 0.25, "+25 rare points"
    assert full.rare_accuracy >= vis.rare_accuracy >= base.rare_accuracy, "ordering"
    assert allhints.rare_accuracy <= hints.rare_accuracy, "all-classes <= top-k"
    assert full.aggregate_accuracy >= base.aggregate_accuracy
    assert wall < 600.0, f"pipeline took {wall:.0f}s"


@criterion(8, "interpretability: identity probes equal; lens rank improves; attention mass holds")
def test_criterion_8_interpretability(default_run, tmp_path):
    _, arts, _, _ = default_run
    identity = A.VisualTokenAdapter(A.AdapterConfig(heads=4, epochs=0), seed=0)
    identity.fit(arts.world, arts.learner.table_, arts.vlm, arts.tokenizer)
    with_identity = Artifacts(
        arts.world, arts.encoder, arts.vlm, arts.tokenizer, arts.learner, identity
    )
    meta = arts.world.scenes("test")[0]
    probe_b, grid_b, ranks_b = _probe_one(with_identity, meta, refined=False)
    probe_r, grid_r, ranks_r = _probe_one(with_identity, meta, refined=True)
    assert np.array_equal(probe_b, probe_r) and np.array_equal(grid_b, grid_r)
    assert ranks_b == ranks_r

    aggregate = probe_report(arts, [], tmp_path / "probe")
    print(f"    lens rank median: baseline={aggregate['median_rank_baseline']} "
          f"refined={aggregate['median_rank_refined']}")
    print(f"    attention mass:   baseline={aggregate['attention_mass_baseline']:.4f} "
          f"refined={aggregate['attention_mass_refined']:.4f}")
    assert aggregate["median_rank_refined"] < aggregate["median_rank_baseline"]
    assert aggregate["attention_mass_refined"] >= aggregate["attention_mass_baseline"]


def test_adapter_training_reduces_rare_answer_nll(default_run):
    """Held-out rare scenes: refined-token answer NLL beats the baseline."""
    _, arts, _, _ = default_run
    m = arts.world.manifest
    base_nll, refined_nll = [], []
    for meta in arts.world.scenes("test"):
        if meta.class_id not in m.rare_ids:
            continue
        v = V.connector(arts.vlm, arts.encoder.encode(arts.world.grid(meta.scene_id))).array
        seq = V.build_qa(arts.tokenizer, v.shape[0], meta.question, meta.answer)
        base_nll.append(V.sequence_nll(arts.vlm, Tensor(v), seq).item())
        v_hat = arts.adapter.transform(v, arts.learner.table_)
        refined_nll.append(V.sequence_nll(arts.vlm, Tensor(v_hat), seq).item())
    assert np.mean(refined_nll) < np.mean(base_nll)


@criterion(9, "determinism and formats: bit-identical reruns, round trips, CRC exit 4")
def test_criterion_9_determinism_and_formats(tmp_path):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(mini_config(), run_a)
    run_pipeline(mini_config(), run_b)
    for name in ("vlm.ckpt", "vocab.json", "classes.ckpt", "adapter.ckpt", "report.json"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name

    # write -> read -> write byte equality for each checkpoint format
    for name, load, save in (("vlm", load_vlm, save_vlm),
                             ("classes", load_classes, save_classes),
                             ("adapter", load_adapter, save_adapter)):
        header, blobs = load(run_a / f"{name}.ckpt")
        save(tmp_path / f"{name}2.ckpt", header, {k: Tensor(v) for k, v in blobs.items()})
        assert (tmp_path / f"{name}2.ckpt").read_bytes() == (run_a / f"{name}.ckpt").read_bytes()

    # CRC corruption must surface as exit code 4 through the CLI.
    corrupted = tmp_path / "corrupted"
    shutil.copytree(run_a, corrupted)
    raw = bytearray((corrupted / "adapter.ckpt").read_bytes())
    raw[25] ^= 0xFF
    (corrupted / "adapter.ckpt").write_bytes(bytes(raw))
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    code = cli.main(["eval", "--config", str(cfg_path), "--out", str(corrupted)])
    assert code == 4
