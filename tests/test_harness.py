"""Pipeline staging, resume identity, reports, probes, CLI exit codes."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rare_lens
from rare_lens import ckpt, cli, optim
from rare_lens import vlm as V
from rare_lens.config import config_from_dict
from rare_lens.errors import ContractError, PairingError
from rare_lens.harness import ablation_sweep, evaluate, probe_report, report_params, run_pipeline
from rare_lens.vis import quantize
from test_vlm import assert_reaped, record_forks
from test_world import flip_version

MINI_DOC = {
    "seed": 5,
    "dataset": {
        "n_classes": 3, "grid": 4, "d_v": 16, "d_t": 16,
        "rare_count": 1, "rare_n": 5, "common_n": 100, "test_per_class": 10,
    },
    "fixture": {
        "epochs": 12, "batch_scenes": 8, "lr": 2e-3,
        "vlm": {"layers": 2, "heads": 2, "dim": 32, "ffn_hidden": 512,
                 "context": 64, "d_v": 16},
    },
    "embeddings": {"dim": 32, "epochs_align": 5, "epochs_joint": 5, "lr": 1e-3},
    "adapter": {"heads": 2, "epochs": 2, "per_class_cap": 6},
    "inference": {"k": 2},
}


# A pipeline in half a second, its gates opened: for tests that run many
# pipelines and compare files, not quality.
QUICK_DOC = {
    "seed": 5,
    "dataset": {"n_classes": 3, "grid": 4, "d_v": 8, "d_t": 8, "rare_count": 1, "rare_n": 5,
                "common_n": 100, "test_per_class": 2},
    "fixture": {"epochs": 1, "gate_common": 0.0, "gate_rare": 1.0,
                "vlm": {"layers": 1, "heads": 2, "dim": 16, "ffn_hidden": 640, "context": 64,
                        "d_v": 8}},
    "embeddings": {"dim": 16, "epochs_align": 1, "epochs_joint": 1, "gate_accuracy": 0.0,
                   "gate_rare_recall": 0.0},
    "adapter": {"heads": 2, "epochs": 1, "per_class_cap": 2},
}


def read_pgm(path) -> np.ndarray:
    tokens = Path(path).read_text().split()
    assert tokens[0] == "P2", f"{path}: not an ASCII PGM file"
    cols, rows = int(tokens[1]), int(tokens[2])
    data = np.array([int(t) for t in tokens[4 : 4 + rows * cols]], dtype=np.int64)
    return data.reshape(rows, cols)


def read_csv_matrix(path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([[float(x) for x in row] for row in csv.reader(fh) if row])


def mini_config():
    return config_from_dict(json.loads(json.dumps(MINI_DOC)))


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    arts, report = run_pipeline(mini_config(), out)
    return out, arts, report


ARTIFACT_FILES = ("vlm.ckpt", "vocab.json", "classes.ckpt", "adapter.ckpt", "report.json")


def test_pipeline_produces_all_artifacts(pipeline_run):
    out, arts, report = pipeline_run
    for name in ARTIFACT_FILES:
        assert (out / name).exists(), name
    assert (out / "dataset" / "manifest.json").exists()
    assert report["params"]["plugin_ratio"] < 0.10
    assert set(report["modes"]) == {"baseline", "full"}
    log_lines = (out / "classes_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,phase,L_align,L_class,proto_acc"
    assert len(log_lines) == 1 + 5 + 5  # align epochs + joint epochs


def test_eval_report_internal_consistency(pipeline_run):
    _, arts, _ = pipeline_run
    rep = evaluate(arts, "full", k=2)
    assert abs(rep.aggregate_accuracy - rep.recomputed_aggregate()) < 1e-12
    for rate in (rep.aggregate_accuracy, rep.detection_accuracy):
        assert 0.0 <= rate <= 1.0
    assert rep.n_scenes == sum(rep.per_class_counts.values())


def test_report_params_formula_and_blob_sizes(pipeline_run):
    out, arts, _ = pipeline_run
    counts = report_params(arts)
    dim = arts.vlm.config.dim
    assert counts["adapter"] == 4 * dim * dim
    from rare_lens import ckpt

    _, blobs = ckpt.load_adapter(out / "adapter.ckpt")
    assert sum(b.size for b in blobs.values()) == counts["adapter"]
    vlm_blob_total = sum(b.size for b in ckpt.load_vlm(out / "vlm.ckpt")[1].values())
    assert vlm_blob_total == counts["vlm"]


def test_resume_skips_completed_stages(pipeline_run):
    out, _, _ = pipeline_run
    arts, report = run_pipeline(mini_config(), out)
    assert report["stages_run"] == []


def test_resume_after_deleting_adapter_reruns_only_stages_4_and_5(pipeline_run):
    out, _, _ = pipeline_run
    before = (out / "adapter.ckpt").read_bytes()
    report_before = (out / "report.json").read_bytes()
    (out / "adapter.ckpt").unlink()
    (out / "report.json").unlink()
    arts, report = run_pipeline(mini_config(), out)
    assert report["stages_run"] == ["adapter", "eval"]
    assert (out / "adapter.ckpt").read_bytes() == before
    assert (out / "report.json").read_bytes() == report_before


def test_two_runs_bit_identical(pipeline_run, tmp_path):
    out, _, _ = pipeline_run
    other = tmp_path / "again"
    run_pipeline(mini_config(), other)
    for name in ("vlm.ckpt", "vocab.json", "classes.ckpt", "adapter.ckpt", "report.json"):
        assert (out / name).read_bytes() == (other / name).read_bytes(), name
    assert (out / "dataset" / "manifest.json").read_bytes() == (
        other / "dataset" / "manifest.json"
    ).read_bytes()


def test_config_change_reruns_downstream(pipeline_run, tmp_path):
    out, _, _ = pipeline_run
    clone = tmp_path / "clone"
    clone.mkdir()
    import shutil

    for item in out.iterdir():
        if item.is_dir():
            shutil.copytree(item, clone / item.name)
        else:
            shutil.copy(item, clone / item.name)
    doc = json.loads(json.dumps(MINI_DOC))
    doc["adapter"]["epochs"] = 1
    arts, report = run_pipeline(config_from_dict(doc), clone)
    assert report["stages_run"] == ["adapter", "eval"]


def test_ablation_sweep_outputs(pipeline_run, tmp_path):
    _, arts, _ = pipeline_run
    out = tmp_path / "sweep"
    result = ablation_sweep(arts, k=2, ks=(1, 2, 3), out_dir=out)
    assert set(result["arms"]) == {
        "baseline", "visual-only", "hints-only", "all-classes-hints", "full"
    }
    detections = [r.detection_accuracy for r in result["ksweep"]]
    assert all(b >= a - 1e-12 for a, b in zip(detections, detections[1:]))
    assert (out / "sweep.csv").exists()
    assert (out / "arms.svg").exists() and (out / "ksweep.svg").exists()
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("arm,k,")
    assert len(rows) == 1 + 5 + 3


def test_probe_report_files_round_trip(pipeline_run, tmp_path):
    _, arts, _ = pipeline_run
    out = tmp_path / "probe"
    sid = arts.world.manifest.test_ids[0]
    aggregate = probe_report(arts, [sid], out)
    grid = read_csv_matrix(out / f"{sid}_lens_baseline.csv")
    pgm = read_pgm(out / f"{sid}_lens_baseline.pgm")
    assert np.array_equal(pgm, quantize(grid))
    att_lines = (out / f"{sid}_attention.csv").read_text().splitlines()
    assert att_lines[0] == "layer,baseline,refined"
    assert len(att_lines) == 1 + arts.vlm.config.layers
    assert set(aggregate) == {
        "median_rank_baseline", "median_rank_refined",
        "attention_mass_baseline", "attention_mass_refined",
    }


def test_identity_adapter_probes_match_baseline(pipeline_run, tmp_path):
    _, arts, _ = pipeline_run
    from rare_lens.adapter import AdapterConfig, VisualTokenAdapter
    from rare_lens.harness import Artifacts, _probe_one

    identity = VisualTokenAdapter(AdapterConfig(heads=2, epochs=0), seed=0)
    identity.fit(arts.world, arts.learner.table_, arts.vlm, arts.tokenizer)
    swapped = Artifacts(
        arts.world, arts.encoder, arts.vlm, arts.tokenizer, arts.learner, identity
    )
    meta = arts.world.scenes("test")[0]
    probe_b, grid_b, ranks_b = _probe_one(swapped, meta, refined=False)
    probe_r, grid_r, ranks_r = _probe_one(swapped, meta, refined=True)
    assert np.array_equal(probe_b, probe_r)
    assert np.array_equal(grid_b, grid_r)
    assert ranks_b == ranks_r


def test_cli_exit_codes(tmp_path, pipeline_run):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert cli.main(["eval", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    out, _, _ = pipeline_run
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 0

    raw = bytearray((out / "classes.ckpt").read_bytes())
    raw[40] ^= 0xFF
    corrupted = tmp_path / "corrupted"
    import shutil

    shutil.copytree(out, corrupted)
    (corrupted / "classes.ckpt").write_bytes(bytes(raw))
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(corrupted)]) == 4


def test_cli_foreign_classes_checkpoint_exits_4(tmp_path, pipeline_run):
    # A valid classes.ckpt from a run with another embeddings.lr passes its
    # own CRC; only the footer recorded in run_meta.json tells it apart.
    out, _, _ = pipeline_run
    other = tmp_path / "other"
    shutil.copytree(out, other)
    doc = json.loads(json.dumps(MINI_DOC))
    doc["embeddings"]["lr"] = 2e-3
    run_pipeline(config_from_dict(doc), other, until="classes")
    mixed = tmp_path / "mixed"
    shutil.copytree(out, mixed)
    shutil.copy(other / "classes.ckpt", mixed / "classes.ckpt")
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(mixed)]) == 4


def _spy_reports(monkeypatch) -> list:
    reports = []

    def spy(*args, **kwargs):
        arts, report = run_pipeline(*args, **kwargs)
        reports.append(report)
        return arts, report

    monkeypatch.setattr(cli, "run_pipeline", spy)
    return reports


def test_cli_torn_run_meta_reruns_every_stage(tmp_path, pipeline_run, monkeypatch):
    out, _, _ = pipeline_run
    torn = tmp_path / "torn"
    shutil.copytree(out, torn)
    meta = torn / "run_meta.json"
    meta.write_bytes(meta.read_bytes()[: meta.stat().st_size // 2])
    reports = _spy_reports(monkeypatch)
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(torn)]) == 0
    assert reports[0]["stages_run"] == ["dataset", "vlm", "classes", "adapter", "eval"]
    assert (torn / "report.json").read_bytes() == (out / "report.json").read_bytes()


def eval_with_damaged_scene(tmp_path, pipeline_run, damage) -> int:
    """Exit code of `rare-lens eval` on a copy of the run with its first scene damaged."""
    out, _, _ = pipeline_run
    cut = tmp_path / "cut"
    shutil.copytree(out, cut)
    scene = sorted((cut / "dataset" / "scenes").glob("*.bin"))[0]
    scene.write_bytes(damage(scene.read_bytes()))
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    return cli.main(["eval", "--config", str(cfg_path), "--out", str(cut)])


def test_cli_truncated_scene_exits_4(tmp_path, pipeline_run):
    assert eval_with_damaged_scene(tmp_path, pipeline_run, lambda raw: raw[:-7]) == 4


def test_cli_scene_with_a_cut_magic_exits_4(tmp_path, pipeline_run):
    assert eval_with_damaged_scene(tmp_path, pipeline_run, lambda raw: raw[:2]) == 4


def test_cli_scene_with_a_flipped_version_exits_4(tmp_path, pipeline_run):
    assert eval_with_damaged_scene(tmp_path, pipeline_run, flip_version) == 4


@pytest.mark.parametrize("doc, args", [
    ({"inference": {"k": "3"}}, []),
    ({"dataset": {"n_classes": "six"}}, []),
    ({"seed": -1}, []),
    ({}, ["--seed", "-3"]),
], ids=["k-string", "n_classes-string", "seed-negative", "seed-flag-negative"])
def test_cli_malformed_config_exits_2(tmp_path, doc, args):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out), *args]) == 2
    assert not out.exists()


# Each count some stage divides by, steps a range by or draws that many of,
# then the dataset's range checks. Unchecked, a count of zero or below
# raised a traceback, some only after the dataset, fixture and classes
# stages had written their artifacts.
@pytest.mark.parametrize("section, key, value", [
    ("fixture.vlm", "heads", 0),
    ("fixture.vlm", "dim", 0),
    ("fixture.vlm", "context", 0),
    ("fixture", "batch_scenes", 0),
    ("fixture", "hint_k", 0),
    ("fixture", "epochs", -1),
    ("fixture.vlm", "context", 19),  # grid 4: 16 visual rows + 4
    ("embeddings", "dim", 0),
    ("embeddings", "batch_size", 0),
    ("embeddings", "budget_per_class", 0),
    ("embeddings", "epochs_align", -1),
    ("embeddings", "epochs_joint", -1),
    ("adapter", "heads", 0),
    ("adapter", "heads", -4),
    ("adapter", "per_class_cap", 0),
    ("adapter", "rare_boost", 0),
    ("adapter", "epochs", -1),
    ("dataset", "d_t", 0),
    ("dataset", "rare_n", 0),
    ("dataset", "rare_n", 11),
    ("dataset", "n_classes", 1),
    ("dataset", "grid", 3),
    ("dataset", "d_v", 7),
    ("dataset", "rare_count", 4),
    ("dataset", "common_n", 99),
    ("dataset", "test_per_class", 0),
], ids=lambda v: str(v))
def test_cli_config_value_out_of_range_exits_2_before_any_stage(tmp_path, capsys, section, key,
                                                                 value):
    doc = json.loads(json.dumps(QUICK_DOC))
    node = doc
    for name in section.split("."):
        node = node.setdefault(name, {})
    node[key] = value
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_config_zero_epochs_and_the_shortest_context_load():
    """Zero epochs skips a phase on purpose; criterion 8 builds an identity adapter so."""
    doc = json.loads(json.dumps(QUICK_DOC))
    doc["fixture"].update(epochs=0)
    doc["fixture"]["vlm"].update(context=20)
    doc["embeddings"].update(epochs_align=0, epochs_joint=0)
    doc["adapter"].update(epochs=0)
    cfg = config_from_dict(doc)
    assert (cfg.fixture.epochs, cfg.embeddings.epochs_align, cfg.embeddings.epochs_joint,
            cfg.adapter.epochs, cfg.fixture.vlm.context) == (0, 0, 0, 0, 20)


# The two gates the eval pipeline itself enforces: scenes too noisy for the
# default prototype gate (accuracy 0.167 against 0.95), and a decoder so
# small that the plug-in parameters pass 10% of it (1,904 against 3,456).
@pytest.mark.parametrize("section, values, message, missing", [
    ("dataset", {"noise": 20.0}, "prototype gate unmet", "classes.ckpt"),
    ("fixture.vlm", {"ffn_hidden": 16}, "plug-in parameter budget exceeded", "report.json"),
], ids=["prototype-gate", "plugin-budget"])
def test_cli_gate_failure_exits_3(tmp_path, capsys, section, values, message, missing):
    doc = json.loads(json.dumps(QUICK_DOC))
    doc["embeddings"].update(gate_accuracy=0.95, gate_rare_recall=0.90)  # the defaults
    node = doc
    for name in section.split("."):
        node = node.setdefault(name, {})
    node.update(values)
    cfg_path = tmp_path / "gate.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"gate failure: {message}") and "Traceback" not in err
    assert (out / "vlm.ckpt").exists() and not (out / missing).exists()


def test_cli_unreadable_config_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (tmp_path / "nonexistent.json", tmp_path, binary):
        assert cli.main(["eval", "--config", str(path), "--out", str(out)]) == 2
        assert "cannot read the config" in capsys.readouterr().err
    assert not out.exists()


def test_cli_probe_unknown_scene_exits_2(tmp_path, pipeline_run):
    out, _, _ = pipeline_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    argv = ["probe", "--config", str(cfg_path), "--out", str(run), "--scenes", "nosuch"]
    assert cli.main(argv) == 2
    assert not (run / "probe").exists()


def test_cli_torn_report_reruns_eval(tmp_path, pipeline_run, monkeypatch):
    out, _, _ = pipeline_run
    torn = tmp_path / "torn"
    shutil.copytree(out, torn)
    report = torn / "report.json"
    report.write_bytes(report.read_bytes()[:300])
    reports = _spy_reports(monkeypatch)
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(torn)]) == 0
    assert reports[0]["stages_run"] == ["eval"]
    assert report.read_bytes() == (out / "report.json").read_bytes()


def test_torn_vocab_reruns_vlm_through_eval(tmp_path, pipeline_run):
    out, _, _ = pipeline_run
    torn = tmp_path / "torn"
    shutil.copytree(out, torn)
    vocab = torn / "vocab.json"
    vocab.write_bytes(vocab.read_bytes()[:50])
    _, report = run_pipeline(mini_config(), torn)
    assert report["stages_run"] == ["vlm", "adapter", "eval"]
    for name in ("vocab.json", "vlm.ckpt", "adapter.ckpt", "report.json"):
        assert (torn / name).read_bytes() == (out / name).read_bytes(), name


def parent_layout(manifest: dict) -> dict:
    """The manifest in the layout written before it stored its config section.

    That layout mirrored six config fields and kept class specs, counts,
    split id lists and a scene object keyed by id.
    """
    cfg, names, rare_ids = manifest["config"], manifest["names"], manifest["rare_ids"]
    counts = [cfg["rare_n"] if c in rare_ids else cfg["common_n"] for c in range(len(names))]
    scenes = {f"s{i:05d}": {**rec, "answer": names[rec["class_id"]]}
              for i, rec in enumerate(manifest["scenes"])}
    return {
        "seed": manifest["seed"], "g": cfg["grid"], "rare_ids": rare_ids,
        **{k: cfg[k] for k in ("d_v", "d_t", "alpha", "noise", "vision_identity")},
        "counts": {str(c): n for c, n in enumerate(counts)},
        "classes": [{"class_id": c, "name": name, "signature": [0.0] * cfg["d_v"],
                     "frequency_weight": float(counts[c])} for c, name in enumerate(names)],
        "train_ids": [sid for sid, rec in scenes.items() if rec["split"] == "train"],
        "test_ids": [sid for sid, rec in scenes.items() if rec["split"] == "test"],
        "scenes": scenes,
    }


# A JSON artifact that parses but lacks what its reader needs is treated like a
# torn one: the stages listed are the ones a torn copy of the same file reruns.
@pytest.mark.parametrize("name, damage, stages", [
    ("dataset/manifest.json", lambda doc: {k: v for k, v in doc.items() if k != "config"},
     ["dataset", "vlm", "classes", "adapter", "eval"]),
    ("dataset/textpool.json",
     lambda doc: {**doc, "0": {"attribute_phrases": doc["0"]["attribute_phrases"]}},
     ["dataset", "vlm", "classes", "adapter", "eval"]),
    ("vocab.json", lambda doc: ["a", "b"], ["vlm", "adapter", "eval"]),
    ("report.json", lambda doc: {k: v for k, v in doc.items() if k != "modes"}, ["eval"]),
    ("run_meta.json", lambda doc: {}, ["dataset", "vlm", "classes", "adapter", "eval"]),
    ("dataset/manifest.json", lambda doc: {**doc, "scenes": []},
     ["dataset", "vlm", "classes", "adapter", "eval"]),
    ("dataset/textpool.json", lambda doc: {("x" if k == "0" else k): v for k, v in doc.items()},
     ["dataset", "vlm", "classes", "adapter", "eval"]),
    ("dataset/manifest.json",
     lambda doc: {**doc, "scenes": [{**doc["scenes"][0], "class_id": "1"}, *doc["scenes"][1:]]},
     ["dataset", "vlm", "classes", "adapter", "eval"]),
    ("dataset/manifest.json", parent_layout, ["dataset", "vlm", "classes", "adapter", "eval"]),
], ids=["manifest-without-config", "textpool-without-lexical-variants", "vocab-without-specials",
        "report-without-modes", "run-meta-without-stages", "manifest-scenes-not-an-object",
        "textpool-class-key-not-an-int", "manifest-scene-class-id-a-string",
        "manifest-parent-layout"])
def test_cli_wrong_shape_json_rebuilds_like_torn(tmp_path, pipeline_run, monkeypatch,
                                                  name, damage, stages):
    out, _, _ = pipeline_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    path = run / name
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    reports = _spy_reports(monkeypatch)
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(run)]) == 0
    assert reports[0]["stages_run"] == stages
    assert (run / "report.json").read_bytes() == (out / "report.json").read_bytes()


def test_sweep_equals_uncached_per_arm_reference(pipeline_run, monkeypatch):
    from rare_lens import harness, hinting
    from test_vlm import stepwise_generate

    _, arts, _ = pipeline_run
    real = harness.detect_and_answer
    answers: dict = {"cached": [], "reference": []}

    def recorded(tag):
        def call(meta, *args, scene=None, **kwargs):
            out = real(meta, *args, scene=scene if tag == "cached" else None, **kwargs)
            answers[tag].append((meta.scene_id, kwargs["mode"], kwargs["k"], out.generated))
            return out
        return call

    # The recorder's list lives in this process: answers made in a forked
    # worker would never reach it.
    monkeypatch.setattr(optim, "worker_processes", lambda: 1)
    monkeypatch.setattr(harness, "detect_and_answer", recorded("cached"))
    batches = []

    def batched(vlm, requests, max_len):
        batches.append(requests)
        return V.generate(vlm, requests, max_len)

    monkeypatch.setattr(hinting, "generate", batched)
    cached = ablation_sweep(arts, k=2)
    # One batch per scene; the arms reading one visual block pass one Tensor,
    # so the trie shares their visual, bos and question rows.
    assert len(batches) == 30
    assert all(len(b) == 14 and len({id(r.visual) for r in b}) == 2 for b in batches)

    def uncached(vlm, requests, max_len):
        (request,) = requests  # a context of one arm decodes its prompt alone
        return [stepwise_generate(vlm, request.visual, request.prompt, max_len)]

    monkeypatch.setattr(hinting, "generate", uncached)
    monkeypatch.setattr(harness, "detect_and_answer", recorded("reference"))
    reference = ablation_sweep(arts, k=2)

    assert len(answers["cached"]) == 14 * 30
    assert answers["cached"] == answers["reference"]
    for mode in cached["arms"]:
        assert cached["arms"][mode].to_dict() == reference["arms"][mode].to_dict()
    assert [r.to_dict() for r in cached["ksweep"]] == [r.to_dict() for r in reference["ksweep"]]


def test_answers_do_not_depend_on_the_batch_they_decode_in(pipeline_run):
    from rare_lens.hinting import MODES, SceneContext, detect_and_answer

    _, arts, _ = pipeline_run
    arms = [(mode, 2) for mode in MODES] + [("hints-only", k) for k in range(1, 10)]
    assert len(arms) == 14  # the sweep's arms at k=2

    def answer(meta, mode, k, scene, max_len):
        out = detect_and_answer(
            meta, arts.world.grid(meta.scene_id), arts.encoder, arts.learner, arts.adapter,
            arts.vlm, arts.tokenizer, k=k, mode=mode, max_len=max_len, scene=scene,
        )
        return out.generated, out.prompt_text, out.detection

    plain = [arm for arm in arms if arm[0] not in ("visual-only", "full")]
    for meta in arts.world.scenes("test"):
        for max_len in (0, 1, 3):
            every_arm = SceneContext(meta.scene_id, arms)
            one_visual = SceneContext(meta.scene_id, plain)  # one Tensor for every request
            for mode, k in arms:
                together = answer(meta, mode, k, every_arm, max_len)
                assert len(together[0]) <= max_len
                assert together == answer(meta, mode, k, SceneContext(meta.scene_id, [(mode, k)]),
                                          max_len)
                assert together == answer(meta, mode, k, None, max_len)
                if (mode, k) in plain:
                    assert together == answer(meta, mode, k, one_visual, max_len)
        with pytest.raises(ContractError, match="not among"):
            answer(meta, "full", 3, every_arm, 3)


def gate_per_class(arts) -> dict:
    return V.evaluate_answers(arts.vlm, arts.tokenizer, arts.encoder, arts.world)


@pytest.fixture(scope="module")
def in_process_answers(pipeline_run):
    _, arts, _ = pipeline_run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "worker_processes", lambda: 1)
        return ablation_sweep(arts, k=2), gate_per_class(arts)


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_forked_sweep_and_gate_equal_the_in_process_answers(pipeline_run, in_process_answers,
                                                            monkeypatch, processes):
    _, arts, _ = pipeline_run
    want_sweep, want_gate = in_process_answers
    monkeypatch.setattr(optim, "worker_processes", lambda: processes)
    pids = record_forks(monkeypatch)
    got_sweep = ablation_sweep(arts, k=2)
    got_gate = gate_per_class(arts)
    assert len(pids) == 2 * (processes - 1)
    assert_reaped(pids)
    assert list(got_sweep["arms"]) == list(want_sweep["arms"])
    for mode, rep in want_sweep["arms"].items():
        assert got_sweep["arms"][mode].to_dict() == rep.to_dict()
    assert [r.to_dict() for r in got_sweep["ksweep"]] == [r.to_dict() for r in want_sweep["ksweep"]]
    assert list(got_gate.items()) == list(want_gate.items())


def test_an_error_in_a_forked_sweep_reaches_the_caller_and_the_cli(tmp_path, pipeline_run,
                                                                   monkeypatch):
    from rare_lens import harness

    out, arts, _ = pipeline_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    # 30 test scenes at 2 processes: the child answers scenes 15 to 29 in id order.
    broken = sorted(arts.world.manifest.test_ids)[20]
    real = harness.detect_and_answer

    def answer(meta, *args, **kwargs):
        if meta.scene_id == broken:
            raise PairingError(f"scene {broken} is broken")
        return real(meta, *args, **kwargs)

    monkeypatch.setattr(harness, "detect_and_answer", answer)
    monkeypatch.setattr(optim, "worker_processes", lambda: 2)
    pids = record_forks(monkeypatch)
    with pytest.raises(PairingError, match=f"scene {broken}") as info:
        ablation_sweep(arts, k=2)
    assert len(pids) == 1
    assert any(f"raised in worker process {pids[0]}" in note for note in info.value.__notes__)
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(run)]) == 4
    assert len(pids) == 2
    assert not (run / "sweep.csv").exists()
    assert_reaped(pids)


def test_checkpoint_version_change_reruns_checkpoint_stages(tmp_path, pipeline_run, monkeypatch):
    out, _, _ = pipeline_run
    old = tmp_path / "old"
    shutil.copytree(out, old)
    monkeypatch.setattr(ckpt, "VERSION", ckpt.VERSION + 1)
    _, report = run_pipeline(mini_config(), old)
    assert report["stages_run"] == ["vlm", "classes", "adapter", "eval"]


def test_cli_detect_emits_jsonl(tmp_path, pipeline_run, capsys):
    out, _, _ = pipeline_run
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    assert cli.main(["detect", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 30  # 3 classes x 10 test scenes
    first = json.loads(lines[0])
    assert set(first) == {"scene_id", "detected"}
    assert len(first["detected"]) == 2
    assert set(first["detected"][0]) == {"name", "score", "argmax_patch"}


def test_cli_seed_override_changes_artifacts(tmp_path, pipeline_run):
    out, _, _ = pipeline_run
    doc = json.loads(json.dumps(MINI_DOC))
    doc["dataset"]["n_classes"] = 2
    doc["dataset"]["rare_count"] = 0
    cfg_path = tmp_path / "s.json"
    cfg_path.write_text(json.dumps(doc))
    out2 = tmp_path / "seeded"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--seed", "77", "--out", str(out2)]) == 0
    meta = json.loads((out2 / "run_meta.json").read_text())
    assert meta["stages"]["dataset"]["hash"]
    doc["seed"] = 77
    from rare_lens.harness import run_pipeline as rp
    from rare_lens.config import config_from_dict as cfd
    arts, _ = rp(cfd(doc), out2, until="dataset")
    assert arts.world.manifest.seed == 77


def test_cli_gate_failure_exit_code(tmp_path):
    doc = json.loads(json.dumps(MINI_DOC))
    doc["fixture"]["epochs"] = 0
    cfg_path = tmp_path / "gate.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["pretrain-vlm", "--config", str(cfg_path), "--out", str(tmp_path / "g")]) == 3


def _assert_identical_mini_runs(tmp_path, variants):
    """Run MINI_DOC's eval, then its sweep, in one child per {name: (BLAS threads, CPU set
    or None)}, all at once; assert that every run directory holds the same files, byte
    for byte.

    A child given a CPU set restricts its own affinity to it before rare_lens
    loads, so its fixture runs one process per CPU in the set."""
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_DOC))
    src = str(Path(rare_lens.__file__).resolve().parents[1])
    launch = ("import os, sys; cpus = sys.argv.pop(1)\n"
              "if cpus: os.sched_setaffinity(0, {int(c) for c in cpus.split(',')})\n"
              "from rare_lens.cli import main; args = sys.argv[1:]\n"
              "sys.exit(main(args) or main(['sweep'] + args[1:]))")
    runs = {}
    for name, (threads, cpus) in variants.items():
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        out = tmp_path / name
        cmd = [sys.executable, "-c", launch, ",".join(map(str, cpus or ())), "eval",
               "--config", str(cfg_path), "--out", str(out)]
        runs[out] = subprocess.Popen(cmd, env=env, stderr=subprocess.PIPE)
    for out, proc in runs.items():
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err.decode()
    one, *others = runs
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert {"vlm.ckpt", "classes.ckpt", "adapter.ckpt", "report.json", "sweep.csv"} <= {
        str(p) for p in files}
    for other in others:
        assert files == sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
        for rel in files:
            assert (one / rel).read_bytes() == (other / rel).read_bytes(), (other.name, rel)


def test_run_directory_identical_at_one_and_two_blas_threads(tmp_path):
    _assert_identical_mini_runs(tmp_path, {"threads1": ("1", None), "threads2": ("2", None)})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs to vary the fixture's worker count")
def test_run_directory_identical_with_one_fixture_worker_and_with_all(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    _assert_identical_mini_runs(tmp_path, {"all_cpus": ("1", None), "one_cpu": ("1", {cpu})})


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    run_pipeline(config_from_dict(QUICK_DOC), out)
    return out


def run_files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def fail_one_replace(monkeypatch, name: str) -> list:
    """Make the first os.replace onto `name` raise, once its temporary file is written."""
    real, failed = os.replace, []

    def replace(src, dst):
        if not failed and Path(dst).as_posix().endswith("/" + name):
            assert Path(src).stat().st_size > 0
            failed.append(dst)
            raise OSError(28, "No space left on device")
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return failed


def test_manifest_that_lost_a_config_key_rebuilds_the_dataset(tmp_path, quick_run):
    # Without its grid key the section reads as grid 5 over 4x4 scene files.
    run = tmp_path / "run"
    shutil.copytree(quick_run, run)
    path = run / "dataset" / "manifest.json"
    doc = json.loads(path.read_text())
    del doc["config"]["grid"]
    path.write_text(json.dumps(doc))
    arts, report = run_pipeline(config_from_dict(QUICK_DOC), run)
    assert "dataset" in report["stages_run"]
    assert arts.world.manifest.config.grid == QUICK_DOC["dataset"]["grid"]
    assert run_files(run) == run_files(quick_run)


@pytest.mark.parametrize("name", [
    "dataset/manifest.json", "dataset/textpool.json", "vlm.ckpt", "vocab.json", "classes.ckpt",
    "adapter.ckpt", "report.json", "run_meta.json"])
def test_interrupted_artifact_write_resumes_to_an_identical_run(tmp_path, quick_run, monkeypatch,
                                                                 name):
    run = tmp_path / "run"
    with monkeypatch.context() as patch:
        failed = fail_one_replace(patch, name)
        with pytest.raises(OSError, match="No space left"):
            run_pipeline(config_from_dict(QUICK_DOC), run)
    assert failed
    assert list(run.rglob("*.tmp")) == []
    cfg_path = tmp_path / "quick.json"
    cfg_path.write_text(json.dumps(QUICK_DOC))
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(run)]) == 0
    assert list(run.rglob("*.tmp")) == []
    assert run_files(run) == run_files(quick_run)


# A byte that is not UTF-8 tears a JSON artifact as surely as a cut does.
@pytest.mark.parametrize("name, stages", [
    ("dataset/manifest.json", ["dataset", "vlm", "classes", "adapter", "eval"]),
    ("dataset/textpool.json", ["dataset", "vlm", "classes", "adapter", "eval"]),
    ("vocab.json", ["vlm", "adapter", "eval"]),
    ("report.json", ["eval"]),
], ids=["manifest", "textpool", "vocab", "report"])
def test_json_artifact_that_is_not_utf8_reruns_its_stage_and_downstream(tmp_path, quick_run,
                                                                       monkeypatch, name, stages):
    run = tmp_path / "run"
    shutil.copytree(quick_run, run)
    path = run / name
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 + 1 :])
    with pytest.raises(UnicodeDecodeError):
        path.read_text(encoding="utf-8")
    reports = _spy_reports(monkeypatch)
    cfg_path = tmp_path / "quick.json"
    cfg_path.write_text(json.dumps(QUICK_DOC))
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(run)]) == 0
    assert reports[0]["stages_run"] == stages
    assert run_files(run) == run_files(quick_run)


def test_failed_checkpoint_rewrite_keeps_the_file_its_record_names(tmp_path, quick_run,
                                                                    monkeypatch):
    # A torn text pool rebuilds the dataset, which reruns the fixture; its
    # checkpoint write fails. The old vlm.ckpt, which run_meta.json still
    # records, must survive whole, so the resume reuses every stage.
    run = tmp_path / "run"
    shutil.copytree(quick_run, run)
    pool = run / "dataset" / "textpool.json"
    pool.write_bytes(pool.read_bytes()[:100])
    with monkeypatch.context() as patch:
        fail_one_replace(patch, "vlm.ckpt")
        with pytest.raises(OSError, match="No space left"):
            run_pipeline(config_from_dict(QUICK_DOC), run)
    reports = _spy_reports(monkeypatch)
    cfg_path = tmp_path / "quick.json"
    cfg_path.write_text(json.dumps(QUICK_DOC))
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(run)]) == 0
    assert reports[0]["stages_run"] == []
    assert run_files(run) == run_files(quick_run)


def quick_cli(tmp_path, quick_run, command: str) -> tuple[int, Path]:
    """Exit code of `rare-lens <command>` on a copy of the finished quick run."""
    run = tmp_path / "run"
    if not run.exists():
        shutil.copytree(quick_run, run)
    cfg_path = tmp_path / "quick.json"
    cfg_path.write_text(json.dumps(QUICK_DOC))
    return cli.main([command, "--config", str(cfg_path), "--out", str(run)]), run


def test_cli_vocab_one_token_longer_than_the_checkpoint_exits_4(tmp_path, quick_run):
    run = tmp_path / "run"
    shutil.copytree(quick_run, run)
    vocab = run / "vocab.json"
    vocab.write_text(json.dumps(json.loads(vocab.read_text()) + ["extra"]))
    assert quick_cli(tmp_path, quick_run, "eval")[0] == 4


def test_cli_sweep_on_a_finished_run_writes_sweep_csv(tmp_path, quick_run):
    code, run = quick_cli(tmp_path, quick_run, "sweep")
    assert code == 0
    with open(run / "sweep.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[:2] == ["arm", "k"] and rows


def test_cli_probe_on_a_finished_run_writes_the_aggregate(tmp_path, quick_run):
    code, run = quick_cli(tmp_path, quick_run, "probe")
    assert code == 0
    with open(run / "probe" / "aggregate.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) > 1
