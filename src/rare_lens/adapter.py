"""Cross-attentive visual-token adapter: refine V against class prototypes.

A single residual multi-head cross-attention layer (visual tokens as queries,
class embeddings as keys and values) whose output projection starts at zero,
so refinement is exactly the identity before training: no regression at step
zero, and the closeness penalty starts from its minimum. Training touches
only the adapter projections; the decoder stays frozen and checksummed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .base import check_counts, check_is_fitted, check_matrix
from .ckpt import round_f32, weights_crc
from .embeddings import ClassEmbeddingTable
from .errors import PairingError, ShapeError
from .optim import AdamW, train_epochs
from .vlm import VLM, TokenSequence, Tokenizer, build_qa, connector, sequence_nll
from .world import VisionEncoder, World


@dataclass(frozen=True)
class AdapterConfig:
    """Adapter hyperparameters.

    heads: attention heads inside the adapter. epochs, lr, weight_decay:
    AdamW schedule (batch size is one scene). rec_weight, autoreg_weight:
    the two loss terms' coefficients. per_class_cap: per-epoch scene cap per
    class, so rare classes are not drowned out. rare_boost: how many times
    each rare-class scene repeats per epoch.
    """

    heads: int = 4
    epochs: int = 10
    lr: float = 1e-4
    weight_decay: float = 0.01
    rec_weight: float = 1.0
    autoreg_weight: float = 1.0
    per_class_cap: int = 10
    rare_boost: int = 12

    def __post_init__(self):
        check_counts(self, "heads", "per_class_cap", "rare_boost")
        check_counts(self, "epochs", least=0)


def init_adapter(dim: int, heads: int, seed: int) -> dict[str, Tensor]:
    if dim % heads:
        raise ShapeError(f"head count {heads} must divide dim {dim}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 67]))
    std = 1.0 / np.sqrt(dim)

    def mat(std_):
        return Tensor(rng.normal(scale=std_, size=(dim, dim)), requires_grad=True)

    # Zero output projection makes the residual branch vanish at init.
    return {"wq": mat(std), "wk": mat(std), "wv": mat(std), "wo": mat(0.0)}


def adapt(
    visual: Tensor | np.ndarray,
    table_w: Tensor,
    params: dict[str, Tensor],
    heads: int,
) -> tuple[Tensor, np.ndarray]:
    """V-hat = V + attention(V as queries, prototypes as keys/values).

    Returns the refined tokens and the attention weights [heads, M, C].
    """
    v = visual if isinstance(visual, Tensor) else Tensor(visual)
    if v.shape[1] != table_w.shape[1]:
        raise ShapeError(
            f"visual dim {v.shape[1]} != prototype dim {table_w.shape[1]}"
        )
    q = ad.matmul(v, params["wq"])
    k = ad.matmul(table_w, params["wk"])
    val = ad.matmul(table_w, params["wv"])
    mixed, weights = ad.multihead_attention(q, k, val, heads, None)
    refined = ad.add(v, ad.matmul(mixed, params["wo"]))
    return refined, weights


def rec_loss(visual: Tensor, refined: Tensor) -> Tensor:
    """Squared Frobenius distance between refined and original tokens."""
    if visual.shape != refined.shape:
        raise ShapeError(f"shapes differ: {visual.shape} vs {refined.shape}")
    diff = ad.sub(refined, visual)
    return ad.sum_all(ad.mul(diff, diff))


def autoreg_loss(refined: Tensor, seq: TokenSequence, vlm: VLM) -> Tensor:
    """Causal LM loss of the frozen decoder fed with refined tokens."""
    return sequence_nll(vlm, refined, seq)


class VisualTokenAdapter:
    """Trains the cross-attentive refinement against a frozen decoder.

    Fitted attributes: params_ (projection tensors), table_crc_, history_.
    """

    def __init__(self, cfg: AdapterConfig, seed: int):
        self.cfg = cfg
        self.seed = seed

    def checksum(self) -> int:
        check_is_fitted(self, "params_")
        return weights_crc(self.params_)

    def transform(self, visual, table: ClassEmbeddingTable) -> np.ndarray:
        """Refine a [M, dim] token matrix; shape-preserving."""
        check_is_fitted(self, "params_")
        v = check_matrix(visual, "visual", cols=table.w.shape[1])
        refined, _ = adapt(v, table.w, self.params_, self.cfg.heads)
        return refined.array

    def fit(
        self,
        world: World,
        table: ClassEmbeddingTable,
        vlm: VLM,
        tokenizer: Tokenizer,
    ):
        if not vlm.frozen:
            raise PairingError("adapter must be trained against a frozen decoder")
        vlm_before = vlm.checksum()
        table_before = np.array(table.w.array)
        encoder = VisionEncoder.for_world(world)
        cfg = self.cfg
        params = init_adapter(vlm.config.dim, cfg.heads, self.seed)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 173]))

        # Balanced, seed-fixed training subset (batch size 1 per step); rare
        # scenes repeat rare_boost times so their gradient share is material.
        rare_ids = set(world.manifest.rare_ids)
        by_class: dict[int, list] = {}
        for meta in world.scenes("train"):
            by_class.setdefault(meta.class_id, []).append(meta)
        chosen = []
        for cid in sorted(by_class):
            metas = by_class[cid]
            take = min(cfg.per_class_cap, len(metas))
            idx = rng.choice(len(metas), size=take, replace=False)
            repeats = cfg.rare_boost if cid in rare_ids else 1
            for _ in range(repeats):
                chosen.extend(metas[i] for i in idx)
        examples = []
        for meta in chosen:
            v = connector(vlm, encoder.encode(world.grid(meta.scene_id))).array
            seq = build_qa(tokenizer, v.shape[0], meta.question, meta.answer)
            examples.append((v, seq))

        rec_sum = auto_sum = 0.0

        def batch_loss(batch) -> Tensor:
            nonlocal rec_sum, auto_sum
            v_arr, seq = examples[batch[0]]
            v = Tensor(v_arr)
            refined, _ = adapt(v, table.w, params, cfg.heads)
            l_rec = rec_loss(v, refined)
            l_auto = autoreg_loss(refined, seq, vlm)
            rec_sum += l_rec.item()
            auto_sum += l_auto.item()
            return ad.add(
                ad.scale(l_rec, cfg.rec_weight), ad.scale(l_auto, cfg.autoreg_weight)
            )

        optimizer = AdamW(list(params.values()), lr=cfg.lr, weight_decay=cfg.weight_decay)
        history = []
        for epoch in train_epochs(
            optimizer, rng, len(examples), 1, cfg.epochs, ad.gradient(batch_loss)
        ):
            history.append(
                {"epoch": epoch, "rec": rec_sum / len(examples),
                 "autoreg": auto_sum / len(examples)}
            )
            rec_sum = auto_sum = 0.0

        if vlm.checksum() != vlm_before:
            raise PairingError("frozen-contract violation: decoder weights moved")
        if not np.array_equal(table.w.array, table_before):
            raise PairingError("frozen-contract violation: class table moved")
        self.params_ = round_f32(params)
        self.table_crc_ = table.pair_token
        self.history_ = history
        return self
