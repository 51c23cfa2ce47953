"""Experiment orchestration: staged pipeline, evaluation, sweeps, probes.

Stages run gen-data -> pretrain-vlm -> train-embeddings -> train-adapter ->
eval. PIPELINE lists them and one loop in run_pipeline drives them: each
persists its artifact plus a record in run_meta.json holding a hash that
binds the stage config to its upstream hashes and, for checkpoints, the
file's stored CRC footer. A resumed run reuses every stage whose artifact
still matches and re-executes everything downstream of the first stale
stage; because trained weights are rounded to storage precision at stage
boundaries, resumed runs are bit-identical to uninterrupted ones.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import ckpt
from .adapter import VisualTokenAdapter
from .autodiff import Tensor
from .base import json_object, write_atomic
from .config import ExperimentConfig, config_hash
from .embeddings import (
    ClassEmbeddingLearner,
    ClassEmbeddingTable,
    ProjectionHeads,
    train_class_embeddings,
)
from .errors import ArtifactError, ConfigError, GateError, PairingError
from .hinting import MODES, SceneContext, detect_and_answer
from .optim import map_rows
from .vlm import (
    VLM,
    Tokenizer,
    VLMConfig,
    attention_probe,
    build_qa,
    connector,
    forward,
    logit_lens,
    pretrain_fixture,
    token_rank,
)
from .vis import write_bar_svg, write_csv, write_csv_matrix, write_line_svg, write_pgm
from .world import VisionEncoder, World, generate_dataset, load_dataset, save_dataset


@dataclass
class Artifacts:
    """Pipeline products; later stages are None when a run stops early."""

    world: World
    encoder: VisionEncoder
    vlm: VLM | None = None
    tokenizer: Tokenizer | None = None
    learner: ClassEmbeddingLearner | None = None
    adapter: VisualTokenAdapter | None = None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    """Per-mode answer metrics over the held-out split."""

    mode: str
    k: int
    n_scenes: int
    aggregate_accuracy: float
    per_class_accuracy: dict[int, float]
    per_class_counts: dict[int, int]
    rare_accuracy: float | None
    common_accuracy: float | None
    detection_accuracy: float
    trust_rate: float | None

    def recomputed_aggregate(self) -> float:
        total = sum(
            self.per_class_accuracy[c] * self.per_class_counts[c]
            for c in self.per_class_accuracy
        )
        return total / max(1, sum(self.per_class_counts.values()))

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["per_class_accuracy"] = {str(k): v for k, v in self.per_class_accuracy.items()}
        doc["per_class_counts"] = {str(k): v for k, v in self.per_class_counts.items()}
        return doc


def evaluate(arts: Artifacts, mode: str, k: int, max_len: int = 3) -> EvalReport:
    """Run one inference arm over the test split, sorted by scene id."""
    return _evaluate_arms(arts, [(mode, k)], max_len)[0]


def _evaluate_arms(
    arts: Artifacts, arms: list[tuple[str, int]], max_len: int
) -> list[EvalReport]:
    """Run (mode, k) arms over the test split, scene by scene in id order.

    The arms of a scene share one SceneContext, so its score map and visual
    tokens are computed once and its first answer decodes every arm's in one
    prefix trie, whose shared prompt rows run once; each answer is still one
    detect_and_answer call. Scenes are answered independently of each other,
    so optim.map_rows splits them across forked worker processes: per arm,
    each scene gives one row of class id, correct, detected and hint-aligned
    (NaN for an arm without hints), and the rows come back in scene-id
    order whatever the process count, so the reports do not depend on it.
    """
    m = arts.world.manifest
    name_ids = {arts.tokenizer.index[n]: n for n in m.names}
    scenes = sorted(arts.world.scenes("test"), key=lambda s: s.scene_id)

    def scene_row(i: int) -> list:
        meta = scenes[i]
        grid = arts.world.grid(meta.scene_id)
        scene = SceneContext(meta.scene_id, arms)
        row = []
        for mode, k in arms:
            out = detect_and_answer(
                meta, grid, arts.encoder, arts.learner, arts.adapter, arts.vlm,
                arts.tokenizer, k=k, mode=mode, max_len=max_len, scene=scene,
            )
            aligned = np.nan
            if mode in ("hints-only", "all-classes-hints", "full"):
                hinted = out.detection.names if mode != "all-classes-hints" else m.names
                answered = {name_ids[t] for t in out.generated if t in name_ids}
                aligned = bool(answered & set(hinted))
            row += [meta.class_id, out.correct, meta.class_id in out.detection.class_ids, aligned]
        return row

    rows = map_rows(scene_row, len(scenes), 4 * len(arms))
    return [_report(mode, k, rows[:, 4 * a : 4 * a + 4], m) for a, (mode, k) in enumerate(arms)]


def _report(mode: str, k: int, rows: np.ndarray, m) -> EvalReport:
    """One arm's report from its [scenes, 4] rows of _evaluate_arms.

    Every column holds 0/1 values or class ids, so each mean is a sum of
    exact integers over a count, whatever the order of the rows.
    """
    class_ids, correct, detected, aligned = rows.T
    counts = {c: int(np.count_nonzero(class_ids == c)) for c in range(m.n_classes)}
    per_class = {c: float(np.mean(correct[class_ids == c])) if counts[c] else 0.0
                 for c in range(m.n_classes)}
    rare = [per_class[c] for c in m.rare_ids]
    common = [per_class[c] for c in range(m.n_classes) if c not in m.rare_ids]
    aligned = aligned[~np.isnan(aligned)]
    return EvalReport(
        mode=mode,
        k=k,
        n_scenes=len(rows),
        aggregate_accuracy=float(np.mean(correct)),
        per_class_accuracy=per_class,
        per_class_counts=counts,
        rare_accuracy=float(np.mean(rare)) if rare else None,
        common_accuracy=float(np.mean(common)) if common else None,
        detection_accuracy=float(np.mean(detected)),
        trust_rate=float(np.mean(aligned)) if aligned.size else None,
    )


def report_params(arts: Artifacts) -> dict:
    """Exact parameter counts; the plug-in side must stay under 10% of the VLM."""
    vlm_n = sum(t.array.size for t in arts.vlm.head_synced_weights().values())
    heads_n = sum(t.array.size for t in arts.learner.heads_.weights.values())
    table_n = arts.learner.table_.w.array.size
    adapter_n = sum(t.array.size for t in arts.adapter.params_.values())
    plugin = heads_n + table_n + adapter_n
    counts = {
        "vlm": vlm_n,
        "projection_heads": heads_n,
        "class_table": table_n,
        "adapter": adapter_n,
        "plugin_total": plugin,
        "plugin_ratio": plugin / vlm_n,
    }
    if plugin >= 0.10 * vlm_n:
        raise GateError(
            f"plug-in parameter budget exceeded: {plugin} vs 10% of {vlm_n}"
        )
    return counts


# ---------------------------------------------------------------------------
# staged pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: its hash inputs and its build, save and load steps.

    inputs(cfg, got) -> dict; build(cfg, got, records) -> (product, extra
    record fields); save(path, product) -> stored checkpoint CRC or None;
    load(cfg, path, got) -> product. `got` maps finished stages to their
    products and `records` is run_meta.json's stage table. Steps look their
    callees up at call time, so wrappers installed on module attributes (as
    benchmarks/tracing.py does) see every call.
    """

    name: str
    upstream: tuple[str, ...]
    file: str
    inputs: Callable
    build: Callable
    save: Callable
    load: Callable


def _artifacts(got: dict) -> Artifacts:
    world = got["dataset"]
    vlm, tokenizer = got.get("vlm", (None, None))
    return Artifacts(world, VisionEncoder.for_world(world), vlm, tokenizer,
                     got.get("classes"), got.get("adapter"))


def _build_dataset(cfg: ExperimentConfig, got: dict, records: dict):
    return generate_dataset(cfg.dataset, cfg.seed), {}


def _load_dataset(cfg: ExperimentConfig, path: Path, got: dict) -> World:
    """The stored dataset, if its manifest records this run's section and seed.

    A manifest that records another one (say, a key lost from its config
    section, which then reads as the default) does not describe its scene
    files, so it is treated like a torn one and the stage rebuilds.
    """
    world = load_dataset(path)
    if world.manifest.config != cfg.dataset or world.manifest.seed != cfg.seed:
        raise ArtifactError(f"{path}/manifest.json: records another dataset config or seed")
    return world


def _build_vlm(cfg: ExperimentConfig, got: dict, records: dict):
    vlm, tokenizer, log = pretrain_fixture(got["dataset"], cfg.fixture, cfg.seed)
    return (vlm, tokenizer), {"weights_crc": vlm.checksum(), "gate": log["gate"],
                              "epoch_losses": log["epoch_losses"]}


def _save_vlm(path: Path, product) -> int:
    vlm, tokenizer = product
    crc = ckpt.save_vlm(path, {**asdict(vlm.config), "vocab": len(tokenizer)},
                        vlm.head_synced_weights())
    tokenizer.save(path.with_name("vocab.json"))
    return crc


def _load_vlm(cfg: ExperimentConfig, path: Path, got: dict):
    header, blobs = ckpt.load_vlm(path)
    tokenizer = Tokenizer.load(path.with_name("vocab.json"))
    if len(tokenizer) != header.pop("vocab"):
        raise PairingError("vocab.json does not match the checkpoint vocab size")
    del blobs["head"]  # stored for the record; the live head is wte transposed
    weights = {k: Tensor(v) for k, v in blobs.items()}
    return VLM(VLMConfig(**header), weights, frozen=True), tokenizer


def _build_classes(cfg: ExperimentConfig, got: dict, records: dict):
    learner, gate = train_class_embeddings(got["dataset"], cfg.embeddings, cfg.seed)
    return learner, {"accuracy": gate["accuracy"], "rare_recall": gate["rare_recall"]}


def _save_classes(path: Path, learner: ClassEmbeddingLearner) -> int:
    table = learner.table_
    crc = ckpt.save_classes(
        path, {"kappa": table.kappa, "class_names": table.class_names},
        {**learner.heads_.weights, "table.w": table.w},
    )
    write_csv(
        path.with_name("classes_log.csv"),
        ["epoch", "phase", "L_align", "L_class", "proto_acc"],
        [[r["epoch"], r["phase"], r["align"], r["class"], r["proto_acc"]]
         for r in learner.history_],
    )
    return crc


def _load_classes(cfg: ExperimentConfig, path: Path, got: dict) -> ClassEmbeddingLearner:
    header, blobs = ckpt.load_classes(path)
    table_w = Tensor(blobs.pop("table.w"))
    weights = {k: Tensor(v) for k, v in blobs.items()}
    token = ckpt.weights_crc({**weights, "table.w": table_w})
    heads = ProjectionHeads(weights, token)
    learner = ClassEmbeddingLearner(cfg.embeddings, cfg.seed)
    learner.heads_ = heads
    learner.table_ = ClassEmbeddingTable(
        table_w, header["class_names"], header["kappa"], pair_token=token
    )
    learner.history_ = []
    return learner


def _adapter_inputs(cfg: ExperimentConfig, got: dict) -> dict:
    return {"adapter": asdict(cfg.adapter), "version": ckpt.VERSION,
            "table": got["classes"].table_.pair_token, "vlm_crc": got["vlm"][0].checksum()}


def _build_adapter(cfg: ExperimentConfig, got: dict, records: dict):
    vlm, tokenizer = got["vlm"]
    adapter = VisualTokenAdapter(cfg.adapter, cfg.seed)
    adapter.fit(got["dataset"], got["classes"].table_, vlm, tokenizer)
    return adapter, {"history": adapter.history_}


def _save_adapter(path: Path, adapter: VisualTokenAdapter) -> int:
    header = {"heads": adapter.cfg.heads, "table_crc": adapter.table_crc_}
    return ckpt.save_adapter(path, header, adapter.params_)


def _load_adapter(cfg: ExperimentConfig, path: Path, got: dict) -> VisualTokenAdapter:
    header, blobs = ckpt.load_adapter(path, got["classes"].table_.pair_token)
    adapter = VisualTokenAdapter(cfg.adapter, cfg.seed)
    adapter.params_ = {k: Tensor(v) for k, v in blobs.items()}
    adapter.table_crc_ = header["table_crc"]
    adapter.history_ = []
    return adapter


def _build_eval(cfg: ExperimentConfig, got: dict, records: dict):
    arts = _artifacts(got)
    inf = cfg.inference
    arms = [(mode, inf.k) for mode in dict.fromkeys(("baseline", inf.mode))]
    report = {
        "modes": {r.mode: r.to_dict() for r in _evaluate_arms(arts, arms, inf.max_answer_len)},
        "params": report_params(arts),
        "fixture_gate": records["vlm"]["gate"],
    }
    return report, {}


def _save_report(path: Path, report: dict) -> None:
    write_atomic(path, json.dumps(report, indent=1, sort_keys=True))


PIPELINE = (
    Stage("dataset", (), "dataset",
          lambda cfg, got: {"dataset": asdict(cfg.dataset), "seed": cfg.seed},
          _build_dataset,
          lambda path, world: save_dataset(world, path),
          _load_dataset),
    Stage("vlm", ("dataset",), "vlm.ckpt",
          lambda cfg, got: {"fixture": asdict(cfg.fixture), "version": ckpt.VERSION},
          _build_vlm, _save_vlm, _load_vlm),
    Stage("classes", ("dataset",), "classes.ckpt",
          lambda cfg, got: {"embeddings": asdict(cfg.embeddings), "version": ckpt.VERSION},
          _build_classes, _save_classes, _load_classes),
    Stage("adapter", ("vlm", "classes"), "adapter.ckpt",
          _adapter_inputs, _build_adapter, _save_adapter, _load_adapter),
    Stage("eval", ("adapter",), "report.json",
          lambda cfg, got: {"inference": asdict(cfg.inference)},
          _build_eval, _save_report,
          lambda cfg, path, got: json_object(json.loads(path.read_text()), path.name,
                                             "modes", "params", "fixture_gate")),
)
STAGES = tuple(stage.name for stage in PIPELINE)


def run_pipeline(
    cfg: ExperimentConfig, out_dir, until: str = "eval"
) -> tuple[Artifacts, dict | None]:
    """Execute (or resume) stages through `until`; returns artifacts + report.

    A stage reruns when its recorded hash is missing or stale, its artifact
    is missing, or a direct upstream stage was re-executed this run. A
    checkpoint whose stored footer differs from the recorded one, or that
    fails its own CRC, raises PairingError or ChecksumError.
    """
    cfg.validate()
    if until not in STAGES:
        raise ConfigError(f"unknown stage {until!r}; expected one of {STAGES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta_path = out / "run_meta.json"
    try:
        records = json_object(json.loads(meta_path.read_text()), meta_path.name, "stages")["stages"]
    except (FileNotFoundError, ValueError):
        records = {}  # missing, torn or wrong-shaped: every stage reruns
    got: dict = {}
    hashes: dict[str, str] = {}
    stages_run: list[str] = []
    for stage in PIPELINE:
        h = hashes[stage.name] = config_hash({
            "inputs": stage.inputs(cfg, got), "up": [hashes[u] for u in stage.upstream],
        })
        path = out / stage.file
        rec = records.get(stage.name)
        product = None
        if (rec is not None and rec.get("hash") == h
                and not set(stage.upstream) & set(stages_run)):
            try:
                if "crc" in rec and ckpt.footer_crc(path) != rec["crc"]:
                    raise PairingError(
                        f"{path}: stored CRC differs from the {rec['crc']} recorded "
                        "for this run; the file comes from another run"
                    )
                product = stage.load(cfg, path, got)
            except (FileNotFoundError, UnicodeDecodeError, json.JSONDecodeError, ArtifactError):
                # Missing, torn (not UTF-8, not JSON) or wrong-shaped: rebuild. Only
                # these classes, because ContractError and ConfigError are ValueErrors too.
                pass
        if product is None:
            product, record = stage.build(cfg, got, records)
            crc = stage.save(path, product)
            if crc is not None:
                record["crc"] = crc
            records[stage.name] = {"hash": h, **record}
            write_atomic(meta_path, json.dumps({"stages": records}, indent=1, sort_keys=True))
            stages_run.append(stage.name)
        got[stage.name] = product
        if stage.name == until:
            break

    arts = _artifacts(got)
    if until != "eval":
        return arts, None
    # Run bookkeeping stays out of the persisted report so resumed runs keep
    # byte-identical artifacts.
    report = got["eval"]
    report["stages_run"] = stages_run
    return arts, report


# ---------------------------------------------------------------------------
# ablation sweep and probes
# ---------------------------------------------------------------------------


def ablation_sweep(
    arts: Artifacts,
    k: int = 3,
    ks: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9),
    out_dir=None,
    max_len: int = 3,
) -> dict:
    """All ablation arms at the configured k, plus a k-sweep of hint injection.

    Every arm answers a scene before the loop moves to the next scene, so the
    arms share each scene's context (see SceneContext). The scenes run on
    forked worker processes (see _evaluate_arms), and the reports are the
    same at any process count.
    """
    reports = _evaluate_arms(
        arts, [(mode, k) for mode in MODES] + [("hints-only", kk) for kk in ks], max_len
    )
    arms = dict(zip(MODES, reports))
    sweep_rows = reports[len(MODES):]

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        header = ["arm", "k", "aggregate", "rare", "common", "detection", "trust"]
        rows = []
        for mode, rep in arms.items():
            rows.append([mode, rep.k, rep.aggregate_accuracy, rep.rare_accuracy,
                         rep.common_accuracy, rep.detection_accuracy, rep.trust_rate])
        for rep in sweep_rows:
            rows.append(["hints-only(k-sweep)", rep.k, rep.aggregate_accuracy,
                         rep.rare_accuracy, rep.common_accuracy,
                         rep.detection_accuracy, rep.trust_rate])
        write_csv(out / "sweep.csv", header, rows)
        write_bar_svg(
            out / "arms.svg",
            list(arms),
            [arms[m].aggregate_accuracy for m in arms],
            "Answer accuracy by arm",
        )
        xs = [rep.k for rep in sweep_rows]
        write_line_svg(
            out / "ksweep.svg",
            {
                "detection": (xs, [r.detection_accuracy for r in sweep_rows]),
                "vlm": (xs, [r.aggregate_accuracy for r in sweep_rows]),
                "trust": (xs, [r.trust_rate for r in sweep_rows]),
            },
            "Hint injection vs k",
        )
    return {"arms": arms, "ksweep": sweep_rows}


def _bbox_positions(meta, g: int) -> list[int]:
    r0, c0, r1, c1 = meta.bbox
    return [r * g + c for r in range(r0, r1) for c in range(c0, c1)]


def _probe_one(arts: Artifacts, meta, refined: bool):
    """Teacher-forced pass for one scene: per-layer probes and lens grid.

    The rank list covers the grounding layers only (upper half of the
    stack): at toy depth the lens first decodes class identity there, while
    early-layer ranks are noise that would drown the aggregate. The returned
    probability grid still spans every layer for the heatmap files.
    """
    grid = arts.world.grid(meta.scene_id)
    v = connector(arts.vlm, arts.encoder.encode(grid)).array
    if refined:
        v = arts.adapter.transform(v, arts.learner.table_)
    seq = build_qa(arts.tokenizer, v.shape[0], meta.question, meta.answer)
    result = forward(arts.vlm, Tensor(v), seq)
    object_pos = len(seq.ids) - len(arts.tokenizer.encode(meta.answer)) - 1
    probe = attention_probe(result, seq, object_pos)
    positions = _bbox_positions(meta, arts.world.manifest.config.grid)
    lens = logit_lens(arts.vlm, result, positions)
    name_id = arts.tokenizer.index[meta.answer]
    prob_grid = lens[:, :, name_id]
    ranks = [
        token_rank(lens[layer, p], name_id)
        for layer in range(lens.shape[0] // 2, lens.shape[0])
        for p in range(lens.shape[1])
    ]
    return probe, prob_grid, ranks


def probe_report(arts: Artifacts, scene_ids: list[str], out_dir) -> dict:
    """Per-scene probe files plus test-split aggregates (baseline vs refined).

    Runs in the calling process: each scene's rank list has its own length,
    which map_rows's fixed-width rows do not carry.
    """
    unknown = [sid for sid in scene_ids if sid not in arts.world.manifest.scene_meta]
    if unknown:
        raise ConfigError(f"unknown scene ids {unknown}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for sid in scene_ids:
        meta = arts.world.manifest.scene_meta[sid]
        probe_b, grid_b, _ = _probe_one(arts, meta, refined=False)
        probe_r, grid_r, _ = _probe_one(arts, meta, refined=True)
        write_csv(
            out / f"{sid}_attention.csv",
            ["layer", "baseline", "refined"],
            [[i, probe_b[i], probe_r[i]] for i in range(len(probe_b))],
        )
        for tag, grid in (("baseline", grid_b), ("refined", grid_r)):
            write_csv_matrix(out / f"{sid}_lens_{tag}.csv", grid)
            write_pgm(out / f"{sid}_lens_{tag}.pgm", grid)

    ranks_b, ranks_r, mass_b, mass_r = [], [], [], []
    for meta in sorted(arts.world.scenes("test"), key=lambda s: s.scene_id):
        probe_b, _, rb = _probe_one(arts, meta, refined=False)
        probe_r, _, rr = _probe_one(arts, meta, refined=True)
        ranks_b.extend(rb)
        ranks_r.extend(rr)
        mass_b.append(float(np.mean(probe_b)))
        mass_r.append(float(np.mean(probe_r)))
    aggregate = {
        "median_rank_baseline": float(np.median(ranks_b)),
        "median_rank_refined": float(np.median(ranks_r)),
        "attention_mass_baseline": float(np.mean(mass_b)),
        "attention_mass_refined": float(np.mean(mass_r)),
    }
    write_csv(
        out / "aggregate.csv",
        ["metric", "baseline", "refined"],
        [
            ["median_lens_rank", aggregate["median_rank_baseline"],
             aggregate["median_rank_refined"]],
            ["attention_mass", aggregate["attention_mass_baseline"],
             aggregate["attention_mass_refined"]],
        ],
    )
    return aggregate
