"""Multi-modal class embeddings: projection heads, contrastive losses, EMA.

Training runs in two phases. Phase one aligns the visual and text projection
heads with a multi-positive contrastive loss over synonym-augmented text
pools. Phase two adds a class-discrimination term against the prototype
table, which itself starts from averaged projected visual features and then
follows an exponential-moving-average of the per-class means once per epoch.
The prototype table receives no gradient; the EMA rule is its only update
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .base import check_counts, check_is_fitted, check_labels, check_matrix
from .ckpt import round_f32, weights_crc
from .errors import ConfigError, ContractError, GateError
from .optim import AdamW, MonotoneGuard, train_epochs
from .world import TextEncoder, VisionEncoder, World, adaptive_resample, crop_and_pool


@dataclass
class ProjectionHeads:
    """Two-layer MLPs mapping each modality into the decoder embedding space."""

    weights: dict[str, Tensor]
    pair_token: int | None = None

    def _mlp(self, prefix: str, z: Tensor | np.ndarray) -> Tensor:
        x = z if isinstance(z, Tensor) else Tensor(np.atleast_2d(z))
        w = self.weights
        h = ad.softplus(ad.add_bias(ad.matmul(x, w[f"{prefix}.w1"]), w[f"{prefix}.b1"]))
        return ad.add_bias(ad.matmul(h, w[f"{prefix}.w2"]), w[f"{prefix}.b2"])

    def project_visual(self, z) -> Tensor:
        return self._mlp("gv", z)

    def project_text(self, z) -> Tensor:
        return self._mlp("gt", z)

    def parameters(self) -> list[Tensor]:
        return list(self.weights.values())


def init_heads(d_v: int, d_t: int, dim: int, seed: int) -> ProjectionHeads:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 517]))

    def mat(rows, cols, std):
        return Tensor(rng.normal(scale=std, size=(rows, cols)), requires_grad=True)

    weights = {}
    for prefix, d_in in (("gv", d_v), ("gt", d_t)):
        weights[f"{prefix}.w1"] = mat(d_in, dim, 1.0 / np.sqrt(d_in))
        weights[f"{prefix}.b1"] = Tensor(np.zeros(dim), requires_grad=True)
        weights[f"{prefix}.w2"] = mat(dim, dim, 1.0 / np.sqrt(dim))
        weights[f"{prefix}.b2"] = Tensor(np.zeros(dim), requires_grad=True)
    return ProjectionHeads(weights)


@dataclass
class ClassEmbeddingTable:
    """Prototype matrix [C, dim] plus class metadata and the EMA coefficient."""

    w: Tensor
    class_names: list[str]
    kappa: float
    pair_token: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ContractError("kappa must lie in [0, 1]")

    @property
    def n_classes(self) -> int:
        return self.w.shape[0]


def init_class_embeddings(
    projected_by_class: dict[int, np.ndarray],
    class_names: list[str],
    kappa: float,
    seed: int = 0,
) -> ClassEmbeddingTable:
    """Prototype c starts as the mean projected visual feature of class c.

    A class whose mean collapses to (near) zero norm is nudged by seeded 1e-6
    noise so downstream cosines stay defined.
    """
    n_classes = len(class_names)
    missing = [c for c in range(n_classes) if c not in projected_by_class
               or len(projected_by_class[c]) == 0]
    if missing:
        raise ContractError(f"classes without visual samples: {missing}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1131]))
    rows = []
    for c in range(n_classes):
        mean = np.asarray(projected_by_class[c], dtype=np.float64).mean(axis=0)
        if np.linalg.norm(mean) < 1e-9:
            mean = mean + 1e-6 * rng.normal(size=mean.shape)
        rows.append(mean)
    return ClassEmbeddingTable(Tensor(np.stack(rows)), list(class_names), kappa)


def ema_update(
    table: ClassEmbeddingTable, class_means: dict[int, np.ndarray]
) -> ClassEmbeddingTable:
    """w_c <- kappa * w_c + (1 - kappa) * mean_c; absent classes unchanged."""
    w = table.w.array.copy()
    for c, mean in class_means.items():
        w[c] = table.kappa * w[c] + (1.0 - table.kappa) * np.asarray(mean)
    return ClassEmbeddingTable(Tensor(w), table.class_names, table.kappa, table.pair_token)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def align_loss(h_v: Tensor, h_t: Tensor, positives: np.ndarray) -> Tensor:
    """Multi-positive contrastive loss pulling each visual toward its class texts.

    positives[i, j] marks text j as sharing sample i's class; every row needs
    at least one positive. Zero when the positives cover the whole text set.
    """
    pos = np.asarray(positives, dtype=np.float64)
    if pos.shape != (h_v.shape[0], h_t.shape[0]):
        raise ContractError(f"positives shape {pos.shape} does not match batch")
    if (pos.sum(axis=1) == 0).any():
        raise ContractError("a sample has an empty positive set")
    expsims = ad.exp(ad.cosine_matrix(h_v, h_t))
    ones = Tensor(np.ones((h_t.shape[0], 1)))
    numer = ad.matmul(ad.mul(expsims, Tensor(pos)), ones)
    denom = ad.matmul(expsims, ones)
    return ad.mean_all(ad.sub(ad.log(denom), ad.log(numer)))


def class_loss(x: Tensor, labels, table: ClassEmbeddingTable) -> Tensor:
    """Cosine-softmax cross-entropy of projected embeddings against prototypes.

    Gradient reaches the projections only unless the table tensor itself
    requires grad (the EMA-updated table does not).
    """
    y = check_labels(labels, "labels", table.n_classes)
    if y.shape[0] != x.shape[0]:
        raise ContractError("labels must match the embedding batch")
    logp = ad.log_softmax_rows(ad.cosine_matrix(x, table.w))
    picked = ad.gather_elements(logp, np.arange(y.shape[0]), y)
    return ad.scale(ad.mean_all(picked), -1.0)


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingConfig:
    """Learner hyperparameters plus the resampling budget and the gate.

    dim: embedding width; must equal the decoder embedding dimension.
    kappa: EMA coefficient for prototype updates. lr, weight_decay: AdamW
    settings for both phases. epochs_align, epochs_joint: phase lengths
    (alignment, then joint). batch_size: visual minibatch size; full batch
    when the set is smaller. class_weight: weight of the discriminative term
    in the joint phase.
    """

    dim: int = 64
    kappa: float = 0.95
    lr: float = 1e-4
    weight_decay: float = 0.01
    epochs_align: int = 10
    epochs_joint: int = 10
    batch_size: int = 128
    class_weight: float = 1.0
    budget_per_class: int = 24
    gate_accuracy: float = 0.95
    gate_rare_recall: float = 0.90

    def __post_init__(self):
        check_counts(self, "dim", "batch_size", "budget_per_class")
        check_counts(self, "epochs_align", "epochs_joint", least=0)


class ClassEmbeddingLearner:
    """Learns projection heads and the prototype table from paired features.

    Fitted attributes: heads_, table_, history_ (per-epoch loss rows).
    """

    def __init__(self, cfg: EmbeddingConfig, seed: int):
        self.cfg = cfg
        self.seed = seed

    # -- fitted-surface helpers ------------------------------------------

    def transform(self, z) -> np.ndarray:
        """Pooled visual features projected into the decoder embedding space."""
        check_is_fitted(self, "heads_")
        return self.heads_.project_visual(check_matrix(z, "z")).array

    def predict(self, z_visual) -> np.ndarray:
        """Nearest-prototype class ids for pooled visual features."""
        check_is_fitted(self, "table_")
        h = self.transform(z_visual)
        h = h / np.linalg.norm(h, axis=1, keepdims=True)
        w = self.table_.w.array
        w = w / np.linalg.norm(w, axis=1, keepdims=True)
        return np.argmax(h @ w.T, axis=1)

    # -- training ----------------------------------------------------------

    def fit(self, z_visual, y_visual, z_text, y_text, class_names: list[str]):
        zv = check_matrix(z_visual, "z_visual")
        zt = check_matrix(z_text, "z_text")
        n_classes = len(class_names)
        yv = check_labels(y_visual, "y_visual", n_classes)
        yt = check_labels(y_text, "y_text", n_classes)
        if set(range(n_classes)) - set(yv.tolist()):
            raise ContractError("every class needs at least one visual sample")
        if set(yv.tolist()) - set(yt.tolist()):
            raise ConfigError(
                "text pool is missing classes present in the visual set; "
                "raise the resampling budget"
            )
        positives = (yt[None, :] == yv[:, None])

        cfg = self.cfg
        heads = init_heads(zv.shape[1], zt.shape[1], cfg.dim, self.seed)
        optimizer = AdamW(heads.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2391]))
        zt_t = Tensor(zt)
        history: list[dict] = []

        def eval_align() -> float:
            return align_loss(
                heads.project_visual(zv), heads.project_text(zt_t), positives
            ).item()

        def projected_means() -> dict[int, np.ndarray]:
            h = heads.project_visual(zv).array
            return {c: h[yv == c].mean(axis=0) for c in range(n_classes)}

        def proto_accuracy(tab) -> float:
            h = heads.project_visual(zv).array
            h = h / np.linalg.norm(h, axis=1, keepdims=True)
            w = tab.w.array / np.linalg.norm(tab.w.array, axis=1, keepdims=True)
            return float(np.mean(np.argmax(h @ w.T, axis=1) == yv))

        # Phase 1: cross-modal alignment only.
        def align_batch(idx) -> Tensor:
            return align_loss(
                heads.project_visual(zv[idx]), heads.project_text(zt_t), positives[idx]
            )

        guard = MonotoneGuard(optimizer, eval_align())
        for epoch in train_epochs(
            optimizer, rng, zv.shape[0], cfg.batch_size, cfg.epochs_align, ad.gradient(align_batch)
        ):
            guard.accept(eval_align())
            history.append(
                {"epoch": epoch, "phase": 1, "align": guard.best,
                 "class": float("nan"), "proto_acc": float("nan")}
            )

        # Prototypes start from averaged projected visual features.
        table = init_class_embeddings(
            {c: heads.project_visual(zv[yv == c]).array for c in range(n_classes)},
            class_names,
            cfg.kappa,
            self.seed,
        )

        def eval_joint(tab) -> tuple[float, float, float]:
            a = eval_align()
            full = ad.concat_rows([heads.project_visual(zv), heads.project_text(zt_t)])
            c = class_loss(full, np.concatenate([yv, yt]), tab).item()
            return a + cfg.class_weight * c, a, c

        # Phase 2: joint objective with one EMA prototype update per epoch;
        # a rejected epoch also keeps the table it started from.
        def joint_batch(idx) -> Tensor:
            hv = heads.project_visual(zv[idx])
            ht = heads.project_text(zt_t)
            loss = align_loss(hv, ht, positives[idx])
            both = ad.concat_rows([hv, ht])
            closs = class_loss(both, np.concatenate([yv[idx], yt]), table)
            return ad.add(loss, ad.scale(closs, cfg.class_weight))

        guard = MonotoneGuard(optimizer, eval_joint(table)[0])
        for epoch in train_epochs(
            optimizer, rng, zv.shape[0], cfg.batch_size, cfg.epochs_joint, ad.gradient(joint_batch)
        ):
            updated = ema_update(table, projected_means())
            joint, a_val, c_val = eval_joint(updated)
            if guard.accept(joint):
                table = updated
            else:
                joint, a_val, c_val = eval_joint(table)
            history.append(
                {"epoch": cfg.epochs_align + epoch, "phase": 2,
                 "align": a_val, "class": c_val, "proto_acc": proto_accuracy(table)}
            )

        # Storage precision is canonical; pair heads and table by checksum.
        heads.weights = round_f32(heads.weights)
        table.w = Tensor(table.w.array.astype(np.float32).astype(np.float64))
        token = weights_crc({**heads.weights, "table.w": table.w})
        heads.pair_token = token
        table.pair_token = token
        self.heads_ = heads
        self.table_ = table
        self.history_ = history
        return self


# ---------------------------------------------------------------------------
# dataset-level training with the prototype gate
# ---------------------------------------------------------------------------


def pooled_crops(world: World, encoder: VisionEncoder, split: str):
    feats, labels = [], []
    for meta in world.scenes(split):
        feats.append(crop_and_pool(encoder, world.grid(meta.scene_id), meta.bbox))
        labels.append(meta.class_id)
    return np.array(feats), np.array(labels)


def train_class_embeddings(
    world: World, cfg: EmbeddingConfig, seed: int
) -> tuple[ClassEmbeddingLearner, dict]:
    """Full training path: crops + re-sampled texts -> fitted learner + gate.

    Raises GateError with a per-class confusion report when held-out
    nearest-prototype accuracy misses the bar.
    """
    m = world.manifest
    encoder = VisionEncoder.for_world(world)
    text_encoder = TextEncoder.for_world(world)
    zv, yv = pooled_crops(world, encoder, "train")
    drawn = adaptive_resample(
        world.pools, m.counts, budget=cfg.budget_per_class * m.n_classes, seed=seed
    )
    covered = {c for c, _ in drawn}
    if covered != set(range(m.n_classes)):
        raise ConfigError(
            f"resampling budget leaves classes without text: raise "
            f"budget_per_class (got {sorted(set(range(m.n_classes)) - covered)})"
        )
    zt = np.array([text_encoder.encode(p) for _, p in drawn])
    yt = np.array([c for c, _ in drawn])

    learner = ClassEmbeddingLearner(cfg, seed).fit(zv, yv, zt, yt, m.names)

    zv_test, yv_test = pooled_crops(world, encoder, "test")
    predicted = learner.predict(zv_test)
    confusion = np.zeros((m.n_classes, m.n_classes), dtype=int)
    for truth, pred in zip(yv_test, predicted):
        confusion[truth, pred] += 1
    accuracy = float(np.mean(predicted == yv_test))
    recalls = {
        c: float(confusion[c, c] / confusion[c].sum()) for c in range(m.n_classes)
    }
    rare_recall = (
        float(np.mean([recalls[c] for c in m.rare_ids])) if m.rare_ids else 1.0
    )
    report = {
        "accuracy": accuracy,
        "rare_recall": rare_recall,
        "recalls": recalls,
        "confusion": confusion.tolist(),
        "history": learner.history_,
        "pair_token": learner.table_.pair_token,
    }
    if accuracy < cfg.gate_accuracy or rare_recall < cfg.gate_rare_recall:
        raise GateError(
            f"prototype gate unmet: accuracy {accuracy:.3f} "
            f"(need >= {cfg.gate_accuracy}), rare recall {rare_recall:.3f} "
            f"(need >= {cfg.gate_rare_recall}); confusion: {confusion.tolist()}"
        )
    return learner, report
