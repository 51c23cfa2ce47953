"""Per-layer metrics from a traced run, and the call counts a config implies."""

from __future__ import annotations

import inspect
import math

from rare_lens.harness import ablation_sweep
from rare_lens.hinting import MODES

from tracing import STAGES, Tracer

# Ops counted per call; each reports <name>.calls and <name>.s.
OP_METRICS = ("matmul", "gelu", "multihead_attention", "rmsnorm_rows", "log_softmax_rows")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    c = t.counts

    stages = t.stage_seconds()
    for stage in STAGES:
        m[f"harness.stage.{stage}_s"] = (stages[stage], "s")
    calls, secs, _ = t.totals("harness.evaluate")
    m["harness.evaluate.calls"] = (calls, "count")
    m["harness.evaluate.s"] = (secs, "s")
    m["harness.run_pipeline.resume_s"] = (t.resume_seconds(), "s")

    calls, _, own = t.totals("vlm.forward")
    m["vlm.forward.calls"] = (calls, "count")
    m["vlm.forward.rows"] = (c["vlm.forward.rows"], "count")
    m["vlm.forward.self_s"] = (own, "s")
    m["vlm.sequence_nll.calls"] = (t.totals("vlm.sequence_nll")[0], "count")
    calls, secs, _ = t.totals("vlm.generate")
    m["vlm.generate.calls"] = (calls, "count")
    m["vlm.generate.tokens"] = (c["vlm.generate.tokens"], "count")
    m["vlm.generate.s"] = (secs, "s")
    decode_rows = c["vlm.forward.decode_rows"]
    m["vlm.forward.rows_per_generated_token"] = (
        _ratio(decode_rows, c["vlm.generate.tokens"]), "rows/token")
    m["vlm.forward.prefix_reuse_in_request"] = (
        _ratio(c["vlm.forward.decode_rows_reused_in_request"], decode_rows), "ratio")
    m["vlm.forward.prefix_reuse_across_requests"] = (
        _ratio(c["vlm.forward.decode_rows_reused_across_requests"], decode_rows), "ratio")

    calls, secs, _ = t.totals("autodiff.backward")
    m["autodiff.backward.calls"] = (calls, "count")
    m["autodiff.backward.s"] = (secs, "s")
    m["autodiff.backward.tape_entries"] = (c["autodiff.backward.tape_entries"], "count")
    for op in OP_METRICS:
        calls, secs = t.ops[f"autodiff.{op}"]
        m[f"autodiff.{op}.calls"] = (calls, "count")
        m[f"autodiff.{op}.s"] = (secs, "s")

    calls, secs, _ = t.totals("optim.AdamW.step")
    m["optim.AdamW.step.calls"] = (calls, "count")
    m["optim.AdamW.step.s"] = (secs, "s")
    calls = t.totals("optim.MonotoneGuard.accept")[0]
    m["optim.MonotoneGuard.accept.calls"] = (calls, "count")
    m["optim.MonotoneGuard.accept_ratio"] = (
        _ratio(c["optim.MonotoneGuard.accepted"], calls), "ratio")

    m["embeddings.ClassEmbeddingLearner.fit.s"] = (
        t.totals("embeddings.ClassEmbeddingLearner.fit")[1], "s")
    m["adapter.VisualTokenAdapter.fit.s"] = (t.totals("adapter.VisualTokenAdapter.fit")[1], "s")
    for name in ("adapter.adapt", "adapter.VisualTokenAdapter.transform",
                 "hinting.detect_and_answer"):
        calls, secs, _ = t.totals(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.s"] = (secs, "s")
    calls, secs, _ = t.totals("hinting.score_map")
    m["hinting.score_map.calls"] = (calls, "count")
    m["hinting.score_map.s"] = (secs, "s")
    m["hinting.score_map.distinct_ratio"] = (
        _ratio(len(t.grids["hinting.score_map"]), calls), "ratio")
    calls = t.ops["world.VisionEncoder.encode"][0]
    m["world.VisionEncoder.encode.calls"] = (calls, "count")
    m["world.VisionEncoder.encode.distinct_ratio"] = (
        _ratio(len(t.grids["world.VisionEncoder.encode"]), calls), "ratio")

    m["world.save_dataset.s"] = (t.totals("world.save_dataset")[1], "s")
    m["world.save_dataset.bytes"] = (c["world.save_dataset.bytes"], "bytes")
    m["ckpt.save.s"] = (t.totals("ckpt.save")[1], "s")
    m["ckpt.save.bytes"] = (c["ckpt.save.bytes"], "bytes")
    m["world.load_dataset.s"] = (t.totals("world.load_dataset")[1], "s")
    m["world.read_scene.calls"] = (t.ops["world.read_scene"][0], "count")
    m["ckpt.load.s"] = (t.totals("ckpt.load")[1], "s")
    m["ckpt.load.bytes"] = (c["ckpt.load.bytes"], "bytes")
    return m


def _adapter_examples(cfg) -> int:
    """Training examples per adapter epoch: capped per class, rare ones boosted."""
    d, a = cfg.dataset, cfg.adapter
    common = (d.n_classes - d.rare_count) * min(a.per_class_cap, d.common_n)
    rare = d.rare_count * min(a.per_class_cap, d.rare_n) * a.rare_boost
    return common + rare


def expected_counts(workload: str, cfg, t: Tracer, units: int) -> dict[str, tuple[int, int]]:
    """{check: (traced count, count the config implies)} for the traced pass."""
    d, f = cfg.dataset, cfg.fixture
    n_test = d.n_classes * d.test_per_class
    detect = t.totals("hinting.detect_and_answer")[0]
    out = {
        # Every generate step runs one forward.
        "generate forwards = generated tokens": (
            t.count_under("vlm.forward", "vlm.generate"), int(t.counts["vlm.generate.tokens"])),
        "score maps = answers": (t.totals("hinting.score_map")[0], detect),
        "generate calls under detect_and_answer = answers": (
            t.count_under("vlm.generate", "hinting.detect_and_answer"), detect),
    }
    if workload == "train":
        seqs = (d.n_classes - d.rare_count) * d.common_n
        steps = f.epochs * math.ceil(seqs / f.batch_scenes)
        adapter_steps = cfg.adapter.epochs * _adapter_examples(cfg)
        modes = len({"baseline", cfg.inference.mode})
        fixture, fit = "vlm.pretrain_fixture", "adapter.VisualTokenAdapter.fit"
        out.update({
            "fixture training forwards = epochs x sequences": (
                t.count_under("vlm.sequence_nll", fixture, taped=True), f.epochs * seqs),
            "fixture guard forwards = (epochs + 1) x sequences": (
                t.count_under("vlm.sequence_nll", fixture, taped=False), (f.epochs + 1) * seqs),
            "fixture AdamW steps": (t.count_under("optim.AdamW.step", fixture), steps),
            "fixture backward calls": (t.count_under("autodiff.backward", fixture), steps),
            "fixture guard accepts = epochs": (
                t.count_under("optim.MonotoneGuard.accept", fixture), f.epochs),
            "fixture gate answers = test scenes": (
                t.count_under("vlm.generate", fixture), n_test),
            "adapter forwards": (t.count_under("vlm.sequence_nll", fit), adapter_steps),
            "adapter AdamW steps": (t.count_under("optim.AdamW.step", fit), adapter_steps),
            "eval evaluate calls": (t.totals("harness.evaluate")[0], modes),
            "eval answers = modes x test scenes": (detect, modes * n_test),
        })
    elif workload == "sweep":
        ks = inspect.signature(ablation_sweep).parameters["ks"].default
        arms = len(MODES) + len(ks)
        out.update({
            "evaluate calls = 14 per sweep": (t.totals("harness.evaluate")[0], arms * units),
            "answers = 14 x test scenes per sweep": (detect, arms * n_test * units),
            "refinements = 2 arms x test scenes per sweep": (
                t.totals("adapter.VisualTokenAdapter.transform")[0], 2 * n_test * units),
        })
    else:
        out.update({
            "requests = test scenes": (detect, n_test),
            "encodes = 2 per request": (t.ops["world.VisionEncoder.encode"][0], 2 * n_test),
            "refinements = 1 per request": (
                t.totals("adapter.VisualTokenAdapter.transform")[0], n_test),
        })
    return out
