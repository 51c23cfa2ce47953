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
from rare_lens.errors import PairingError
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


# A JSON artifact that parses but lacks what its reader needs is treated like a
# torn one: the stages listed are the ones a torn copy of the same file reruns.
@pytest.mark.parametrize("name, damage, stages", [
    ("dataset/manifest.json", lambda doc: {k: v for k, v in doc.items() if k != "classes"},
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
], ids=["manifest-without-classes", "textpool-without-lexical-variants", "vocab-without-specials",
        "report-without-modes", "run-meta-without-stages", "manifest-scenes-not-an-object",
        "textpool-class-key-not-an-int"])
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
    cached = ablation_sweep(arts, k=2)
    monkeypatch.setattr(hinting, "generate", stepwise_generate)
    monkeypatch.setattr(harness, "detect_and_answer", recorded("reference"))
    reference = ablation_sweep(arts, k=2)

    assert len(answers["cached"]) == 14 * 30
    assert answers["cached"] == answers["reference"]
    for mode in cached["arms"]:
        assert cached["arms"][mode].to_dict() == reference["arms"][mode].to_dict()
    assert [r.to_dict() for r in cached["ksweep"]] == [r.to_dict() for r in reference["ksweep"]]


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
