"""Tiny frozen decoder-only VLM fixture: connector, causal decoder, probes.

The fixture never sees a rare-class scene, so rare classes fail in baseline
mode by construction — that manufactured blind spot is what the enhancement
modules are later measured against. A slice of the pretraining examples
carries detector-style ``[Detected: ...]`` prompt suffixes with the true
name at a random slot, teaching the decoder that hints are informative; a
junk-object slice (random planted direction, answer = leading hint, any
class name) teaches the fallback of trusting hints on unfamiliar visuals
and gives every name token output-side competence without grounding it.
After pretraining the weights are rounded to storage precision,
checksummed, and never updated again.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .base import write_atomic
from .ckpt import round_f32, weights_crc
from .errors import ArtifactError, ContractError, GateError, ShapeError
from .optim import (
    AdamW, ForkedWorkers, MonotoneGuard, fold, map_rows, mean_gradient, train_epochs,
)
from .prompting import HINT_SUFFIX, enrich_prompt
from .world import VisionEncoder, World, random_object_grid

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


class Role(IntEnum):
    VISUAL = 0
    PROMPT = 1
    ANSWER = 2


@dataclass
class TokenSequence:
    """Token ids with a per-position role mask; visual positions lead."""

    ids: list[int]
    roles: list[int]

    def __post_init__(self):
        if len(self.ids) != len(self.roles):
            raise ContractError("ids and roles must have equal length")
        n_vis = self.n_visual
        if any(r == Role.VISUAL for r in self.roles[n_vis:]):
            raise ContractError("visual positions must form a contiguous prefix")

    @property
    def n_visual(self) -> int:
        n = 0
        while n < len(self.roles) and self.roles[n] == Role.VISUAL:
            n += 1
        return n

    @property
    def text_ids(self) -> list[int]:
        return self.ids[self.n_visual :]

    def answer_positions(self) -> list[int]:
        return [i for i, r in enumerate(self.roles) if r == Role.ANSWER]


class Tokenizer:
    """Word-level tokenizer; class names stay single tokens by construction."""

    SPECIALS = ("<bos>", "<eos>", "<pad>", "<unk>")

    def __init__(self, vocab: list[str]):
        self.vocab = list(vocab)
        self.index = {tok: i for i, tok in enumerate(self.vocab)}
        self.bos, self.eos, self.pad, self.unk = (
            self.index[s] for s in self.SPECIALS
        )

    @classmethod
    def build(cls, world: World) -> "Tokenizer":
        words: set[str] = set()
        for meta in world.manifest.scene_meta.values():
            words.update(cls.split(meta.question))
            words.update(cls.split(meta.answer))
        words.update(world.manifest.names)
        words.update(cls.split(HINT_SUFFIX.format(names=",")))
        return cls(list(cls.SPECIALS) + sorted(words))

    @staticmethod
    def split(text: str) -> list[str]:
        return _TOKEN_RE.findall(text.lower())

    def encode(self, text: str) -> list[int]:
        return [self.index.get(tok, self.unk) for tok in self.split(text)]

    def decode(self, ids: list[int]) -> str:
        return " ".join(self.vocab[i] for i in ids)

    def save(self, path) -> None:
        write_atomic(path, json.dumps(self.vocab, indent=0))

    @classmethod
    def load(cls, path) -> "Tokenizer":
        vocab = json.loads(Path(path).read_text())
        if not isinstance(vocab, list) or any(s not in vocab for s in cls.SPECIALS):
            raise ArtifactError(f"{path}: not a vocabulary holding {cls.SPECIALS}")
        return cls(vocab)

    def __len__(self) -> int:
        return len(self.vocab)


@dataclass(frozen=True)
class VLMConfig:
    layers: int = 4
    heads: int = 4
    dim: int = 64
    ffn_hidden: int = 512
    context: int = 256
    d_v: int = 32

    def __post_init__(self):
        if self.layers < 1:
            raise ContractError("a decoder needs at least one layer")
        if self.dim % self.heads:
            raise ContractError("head count must divide dim")


@dataclass
class VLM:
    """Connector + decoder weights; frozen means no tensor requires grad."""

    config: VLMConfig
    weights: dict[str, Tensor]
    frozen: bool = False

    def checksum(self) -> int:
        return weights_crc(self.head_synced_weights())

    def head_tensor(self) -> Tensor:
        """The readout head: a live transpose of the token embedding."""
        return ad.transpose(self.weights["wte"])

    def head_array(self) -> np.ndarray:
        return self.head_tensor().array

    def head_synced_weights(self) -> dict[str, Tensor]:
        """Weights plus the derived head blob, which storage keeps."""
        return {**self.weights, "head": Tensor(self.weights["wte"].array.T.copy())}

    def parameters(self) -> list[Tensor]:
        return list(self.weights.values())

    def freeze(self) -> "VLM":
        frozen = {k: Tensor(t.array, requires_grad=False) for k, t in self.weights.items()}
        return VLM(self.config, frozen, frozen=True)


def init_vlm(config: VLMConfig, vocab_size: int, seed: int) -> VLM:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))

    def mat(rows, cols, std=0.02):
        return Tensor(rng.normal(scale=std, size=(rows, cols)), requires_grad=True)

    d, h = config.dim, config.ffn_hidden
    weights: dict[str, Tensor] = {
        "wte": mat(vocab_size, d),
        "wpe": mat(config.context, d),
        "connector": mat(config.d_v, d),
    }
    for i in range(config.layers):
        weights[f"layer{i}.wq"] = mat(d, d)
        weights[f"layer{i}.wk"] = mat(d, d)
        weights[f"layer{i}.wv"] = mat(d, d)
        weights[f"layer{i}.wo"] = mat(d, d, std=0.0)
        weights[f"layer{i}.w1"] = mat(d, h)
        weights[f"layer{i}.w2"] = mat(h, d, std=0.0)
    return VLM(config, weights)


def connector(vlm: VLM, features: Tensor | np.ndarray) -> Tensor:
    """V = C(U): linear map from encoder space into the decoder embedding."""
    u = features if isinstance(features, Tensor) else Tensor(features)
    if u.shape[1] != vlm.config.d_v:
        raise ShapeError(f"connector expects d_v={vlm.config.d_v}, got {u.shape}")
    return ad.matmul(u, vlm.weights["connector"])


# Per-layer (keys, values), each [positions run so far, dim].
KVCache = list[tuple[Tensor, Tensor]]


@dataclass
class ForwardResult:
    logits: Tensor  # [n, vocab]
    hiddens: list[Tensor]  # length layers+1; hiddens[0] is the embedded input
    attentions: list[np.ndarray]  # per layer [heads, n, past + n]
    n_visual: int
    kv: KVCache  # past plus this call's rows; pass it back as `past` to continue


def _decoder_layer(w: dict[str, Tensor], i: int, x: Tensor, attend, rows=None) -> Tensor:
    """Pre-norm decoder layer i over the stacked rows x; returns the new rows.

    attend(i, q, k, v) mixes the query rows over the key and value rows.
    With `rows`, only those rows of x pass through the query, attention
    output and FFN (K and V still use every row), and only they come back.
    """
    hnorm = ad.rmsnorm_rows(x)
    if rows is not None:
        x, hq = ad.gather_rows(x, rows), ad.gather_rows(hnorm, rows)
    else:
        hq = hnorm
    q = ad.matmul(hq, w[f"layer{i}.wq"])
    k = ad.matmul(hnorm, w[f"layer{i}.wk"])
    v = ad.matmul(hnorm, w[f"layer{i}.wv"])
    x = ad.add(x, ad.matmul(attend(i, q, k, v), w[f"layer{i}.wo"]))
    fnorm = ad.rmsnorm_rows(x)
    return ad.add(x, ad.matmul(ad.gelu(ad.matmul(fnorm, w[f"layer{i}.w1"])), w[f"layer{i}.w2"]))


def forward(
    vlm: VLM, visual: Tensor | None, seq: TokenSequence, past: KVCache | None = None
) -> ForwardResult:
    """Teacher-forced pass; strictly causal; keeps hiddens and attention.

    With `past` (the `kv` of an earlier result), seq holds only the positions
    that follow it, visual must be None, and only seq's rows are computed;
    they match the same rows of one forward over the whole sequence up to
    float rounding.
    """
    cfg = vlm.config
    w = vlm.weights
    m = 0 if visual is None else visual.shape[0]
    if m != seq.n_visual:
        raise ContractError(f"sequence declares {seq.n_visual} visual positions, got {m}")
    start = 0 if past is None else past[0][0].shape[0]
    if past is not None and m:
        raise ContractError("a continuation after a K/V cache takes no visual block")
    n = len(seq.ids)
    if start + n > cfg.context:
        raise ContractError(f"sequence length {start + n} exceeds context {cfg.context}")
    if n == 0:
        raise ContractError("empty sequence")

    text = ad.gather_rows(w["wte"], seq.text_ids) if n > m else None
    if visual is not None and text is not None:
        x = ad.concat_rows([visual, text])
    else:
        x = visual if visual is not None else text
    x = ad.add(x, ad.gather_rows(w["wpe"], list(range(start, start + n))))

    attentions: list[np.ndarray] = []
    kv: KVCache = []

    def attend(i, q, k, v):
        if past is not None:
            k = ad.concat_rows([past[i][0], k])
            v = ad.concat_rows([past[i][1], v])
        out, weights = ad.multihead_attention(q, k, v, cfg.heads, causal=True)
        kv.append((k, v))
        attentions.append(weights)
        return out

    hiddens = [x]
    for i in range(cfg.layers):
        hiddens.append(_decoder_layer(w, i, hiddens[-1], attend))
    logits = ad.matmul(hiddens[-1], vlm.head_tensor())
    return ForwardResult(logits, hiddens, attentions, m, kv)


def batch_nll(vlm: VLM, visual: Tensor | None, seqs: list[TokenSequence]) -> Tensor:
    """Summed answer-region next-token NLL of a batch of sequences, one pass.

    `visual` stacks the visual rows of every sequence in batch order
    ([sum of n_visual, dim]), or is None when no sequence has any. Each
    tape entry holds the rows of all sequences stacked [sum of lengths,
    dim]; attention stays within each sequence (ad.segment_attention),
    and the last layer runs its query, attention output, FFN and the head
    only on the rows that predict an answer token. Equals the sum of
    per-sequence forwards up to float rounding.
    """
    cfg = vlm.config
    w = vlm.weights
    if not seqs:
        raise ContractError("empty batch")
    n_visual = [s.n_visual for s in seqs]
    m = 0 if visual is None else visual.shape[0]
    if m != sum(n_visual):
        raise ContractError(f"batch declares {sum(n_visual)} visual rows, got {m}")
    lengths = [len(s.ids) for s in seqs]
    if max(lengths) > cfg.context:
        raise ContractError(f"sequence length {max(lengths)} exceeds context {cfg.context}")
    # Row r of the stacked batch reads row source[r] of [visual; wte].
    source, rows, targets = [], [], []
    vis_start = row_start = 0
    for seq, nv, n in zip(seqs, n_visual, lengths):
        answers = seq.answer_positions()
        if not answers:
            raise ContractError("no supervised positions in sequence")
        if answers[0] == 0:
            raise ContractError("an answer at position 0 has no row to predict it")
        source.extend(range(vis_start, vis_start + nv))
        source.extend(m + t for t in seq.text_ids)
        rows.extend(row_start + p - 1 for p in answers)
        targets.extend(seq.ids[p] for p in answers)
        vis_start += nv
        row_start += n
    table = w["wte"] if visual is None else ad.concat_rows([visual, w["wte"]])
    positions = [p for n in lengths for p in range(n)]
    x = ad.add(ad.gather_rows(table, source), ad.gather_rows(w["wpe"], positions))

    last = cfg.layers - 1
    every_row, answer_rows = ad.SegmentPlan(lengths), ad.SegmentPlan(lengths, rows)

    def attend(i, q, k, v):
        return ad.segment_attention(q, k, v, cfg.heads, answer_rows if i == last else every_row)

    for i in range(cfg.layers):
        x = _decoder_layer(w, i, x, attend, rows if i == last else None)
    logprobs = ad.log_softmax_rows(ad.matmul(x, vlm.head_tensor()))
    picked = ad.gather_elements(logprobs, range(len(rows)), targets)
    return ad.scale(ad.sum_all(picked), -1.0)


def _unpruned_nll(vlm: VLM, visual: Tensor | None, seq: TokenSequence) -> Tensor:
    """sequence_nll through one full forward: every row reaches the head.

    The fixture's training step keeps this path. Batching or pruning the
    step changes how its gradients round, and the trained fixture then
    drifts far enough that acceptance criterion 8 at seed 0, decided by
    one lens rank, no longer holds.
    """
    targets = seq.answer_positions()
    logprobs = ad.log_softmax_rows(forward(vlm, visual, seq).logits)
    picked = ad.gather_elements(logprobs, [p - 1 for p in targets], [seq.ids[p] for p in targets])
    return ad.scale(ad.sum_all(picked), -1.0)


def sequence_nll(vlm: VLM, visual: Tensor | None, seq: TokenSequence) -> Tensor:
    """Summed next-token negative log-likelihood of the answer-region targets.

    A batch of one through batch_nll, so only the answer rows reach the head.
    """
    return batch_nll(vlm, visual, [seq])


def generate(
    vlm: VLM,
    visual: Tensor | None,
    prompt: TokenSequence,
    max_len: int,
    past: KVCache | None = None,
) -> list[int]:
    """Greedy decoding; ties break to the lowest token id; stops at <eos>.

    Prefills the prompt once, then runs one row per generated token on the
    K/V cache. With `past`, the K/V of the prompt's leading positions
    (visual block included) are given, visual is None, and only the rest of
    the prompt is prefilled; at least one prompt position must remain.
    Returns the generated ids (with the closing <eos> when emitted).
    """
    if not prompt.text_ids:
        raise ContractError("prompt must be nonempty")
    start = 0 if past is None else past[0][0].shape[0]
    if start >= len(prompt.ids):
        raise ContractError("a K/V cache must leave at least one prompt position to run")
    seq = TokenSequence(prompt.ids[start:], prompt.roles[start:])
    out: list[int] = []
    for _ in range(max_len):
        result = forward(vlm, visual, seq, past=past)
        token = int(np.argmax(result.logits.array[-1]))  # first (lowest id) max
        out.append(token)
        if token == EOS_ID:
            break
        visual, seq, past = None, TokenSequence([token], [Role.ANSWER]), result.kv
    return out


# <eos> sits at a fixed slot because specials lead the vocabulary.
EOS_ID = Tokenizer.SPECIALS.index("<eos>")


def build_prompt(tokenizer: Tokenizer, n_visual: int, prompt_text: str) -> TokenSequence:
    ids = [tokenizer.pad] * n_visual + [tokenizer.bos] + tokenizer.encode(prompt_text)
    roles = [Role.VISUAL] * n_visual + [Role.PROMPT] * (len(ids) - n_visual)
    return TokenSequence(ids, roles)


def build_qa(
    tokenizer: Tokenizer, n_visual: int, prompt_text: str, answer_text: str
) -> TokenSequence:
    prompt = build_prompt(tokenizer, n_visual, prompt_text)
    answer_ids = tokenizer.encode(answer_text) + [tokenizer.eos]
    return TokenSequence(
        prompt.ids + answer_ids, prompt.roles + [Role.ANSWER] * len(answer_ids)
    )


# ---------------------------------------------------------------------------
# fixture pretraining
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixtureConfig:
    epochs: int = 12
    batch_scenes: int = 8
    lr: float = 2e-3
    weight_decay: float = 0.01
    hinted_fraction: float = 0.25
    junk_fraction: float = 0.25
    hint_k: int = 3
    gate_common: float = 0.90
    gate_rare: float = 0.40
    max_answer_len: int = 3
    vlm: VLMConfig = field(default_factory=VLMConfig)


@dataclass
class _Example:
    features: np.ndarray  # [M, d_v]
    prompt: str
    answer: str


def _fixture_examples(
    world: World, encoder: VisionEncoder, cfg: FixtureConfig, rng: np.random.Generator
) -> list[_Example]:
    m = world.manifest
    # Distractor hints may name rare classes (text only): the decoder learns
    # those words as inputs while never seeing a rare scene or answer.
    hint_pool = m.names
    examples: list[_Example] = []
    for meta in world.scenes("train"):
        if meta.class_id in m.rare_ids:
            continue
        u = rng.uniform()
        feats = encoder.encode(world.grid(meta.scene_id))
        if u < cfg.junk_fraction:
            # Unfamiliar object: the leading hint is the only usable evidence.
            # The first hint (= answer) ranges over every class name; a junk
            # scene carries no class visual, so this trains word-level output
            # competence without ever grounding a rare class.
            grid, _ = random_object_grid(rng, m.g, m.d_v, m.alpha, m.noise)
            names = list(rng.choice(hint_pool, size=min(cfg.hint_k, len(hint_pool)), replace=False))
            examples.append(
                _Example(encoder.encode(grid), enrich_prompt(meta.question, names), names[0])
            )
        elif u < cfg.junk_fraction + cfg.hinted_fraction:
            # Known object with hints; the true name lands at a random slot.
            distractors = [nm for nm in hint_pool if nm != meta.answer]
            k = min(cfg.hint_k - 1, len(distractors))
            names = list(rng.choice(distractors, size=k, replace=False))
            names.insert(int(rng.integers(len(names) + 1)), meta.answer)
            examples.append(
                _Example(feats, enrich_prompt(meta.question, names), meta.answer)
            )
        else:
            examples.append(_Example(feats, meta.question, meta.answer))
    return examples


def evaluate_answers(
    vlm: VLM,
    tokenizer: Tokenizer,
    encoder: VisionEncoder,
    world: World,
    split: str = "test",
    max_len: int = 3,
) -> dict[int, float]:
    """Per-class exact-name answer accuracy in plain baseline mode.

    Scenes are answered independently, so optim.map_rows splits them across
    forked worker processes, one hit (0 or 1) per scene; the hits come back
    in split order, so the result does not depend on the process count.
    """
    scenes = world.scenes(split)

    def hit(i: int) -> list:
        meta = scenes[i]
        v = connector(vlm, encoder.encode(world.grid(meta.scene_id)))
        prompt = build_prompt(tokenizer, v.shape[0], meta.question)
        return [tokenizer.index[meta.answer] in generate(vlm, v, prompt, max_len)]

    per_class: dict[int, list[float]] = {}
    for meta, ok in zip(scenes, map_rows(hit, len(scenes), 1)[:, 0].tolist()):
        per_class.setdefault(meta.class_id, []).append(ok)
    return {cid: float(np.mean(oks)) for cid, oks in per_class.items()}


def _fixture_tasks(vlm: VLM, sequences: list, chunk: int) -> dict:
    """The fixture's two ForkedWorkers tasks over (features, sequence) pairs.

    "step" is the mean answer NLL gradient over a chunk of pair indices,
    each pair through _unpruned_nll; "guard" gives one batch_nll per block
    item, a start index of `chunk` consecutive pairs, outside any tape.
    """

    def sequence_loss(j) -> Tensor:
        feats, seq = sequences[j]
        return _unpruned_nll(vlm, connector(vlm, feats), seq)

    def chunk_nlls(starts: list, lo: int, hi: int) -> list:
        nlls = []
        for start in starts[lo:hi]:
            part = sequences[start : start + chunk]
            visual = connector(vlm, np.concatenate([feats for feats, _ in part]))
            nlls.append(batch_nll(vlm, visual, [seq for _, seq in part]).item())
        return [(0, np.array(nlls))]

    return {"step": mean_gradient(sequence_loss), "guard": chunk_nlls}


def _result_floats(vlm: VLM, chunk: int) -> int:
    """Room for the largest result of a _fixture_tasks block, in floats.

    That is a middle "step" block of a whole chunk, which ships each
    sequence's contributions unsummed: two for the tied wte, one for every
    other parameter.
    """
    return 2 * chunk * sum(p.array.size for p in vlm.parameters())


def _mean_nll(workers: ForkedWorkers, n: int, chunk: int) -> float:
    """Mean answer NLL of the n pairs of _fixture_tasks, by its "guard" task.

    The chunk losses are added one by one in chunk order (a plain loop: the
    built-in sum of floats rounds differently on newer Pythons).
    """
    total = 0.0
    for block in workers.run("guard", range(0, n, chunk)):
        for _, nlls in block:
            for nll in nlls.tolist():
                total += nll
    return total / n


def pretrain_fixture(
    world: World, cfg: FixtureConfig, seed: int
) -> tuple[VLM, Tokenizer, dict]:
    """Train the frozen-VLM fixture on common classes and enforce its gate.

    Training steps and guard passes run on this process plus forked worker
    processes (optim.ForkedWorkers: one process per usable CPU divided by
    the BLAS threads), made once the model, tokenizer and sequences exist
    and reaped before the gate. A step's chunk is cut into contiguous
    blocks, this process taking the first; the block that ends the chunk is
    folded where it ran, a middle block ships its parameter contributions
    unsummed, and this process folds the blocks last first: the same float
    additions in the same order as one tape over the chunk. A guard pass
    splits its batch_scenes chunks the same way, and their losses are added
    here in chunk order. So the result is bit-identical whatever the
    process count. AdamW, the guard's decisions and the gate's decoding
    stay in this process.

    Returns the frozen (f32-rounded, checksummed) VLM, the tokenizer, and a
    log with per-epoch mean losses and gate metrics.
    """
    tokenizer = Tokenizer.build(world)
    vcfg = replace(cfg.vlm, d_v=world.manifest.d_v)
    vlm = init_vlm(vcfg, len(tokenizer), seed)
    encoder = VisionEncoder.for_world(world)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 97]))
    examples = _fixture_examples(world, encoder, cfg, rng)
    sequences = [
        (ex.features, build_qa(tokenizer, ex.features.shape[0], ex.prompt, ex.answer))
        for ex in examples
    ]

    n, chunk = len(sequences), cfg.batch_scenes
    tasks = _fixture_tasks(vlm, sequences, chunk)
    with ForkedWorkers(vlm.parameters(), tasks, _result_floats(vlm, chunk)) as workers:
        optimizer = AdamW(vlm.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        guard = MonotoneGuard(optimizer, _mean_nll(workers, n, chunk))
        epoch_losses: list[float] = [guard.best]

        def step(indices) -> dict:
            return fold(workers.run("step", indices))

        for _ in train_epochs(optimizer, rng, n, chunk, cfg.epochs, step):
            guard.accept(_mean_nll(workers, n, chunk))
            epoch_losses.append(guard.best)

    frozen = VLM(vcfg, round_f32(vlm.weights)).freeze()
    per_class = evaluate_answers(frozen, tokenizer, encoder, world, max_len=cfg.max_answer_len)
    m = world.manifest
    common = [a for c, a in per_class.items() if c not in m.rare_ids]
    rare = [a for c, a in per_class.items() if c in m.rare_ids]
    gate = {
        "common_accuracy": float(np.mean(common)) if common else 1.0,
        "rare_accuracy": float(np.mean(rare)) if rare else 0.0,
        "per_class": per_class,
    }
    if gate["common_accuracy"] < cfg.gate_common or (
        rare and gate["rare_accuracy"] > cfg.gate_rare
    ):
        raise GateError(
            "fixture gate unmet: common "
            f"{gate['common_accuracy']:.3f} (need >= {cfg.gate_common}), rare "
            f"{gate['rare_accuracy']:.3f} (need <= {cfg.gate_rare}); retune the "
            "fixture config"
        )
    log = {"epoch_losses": epoch_losses, "gate": gate, "checksum": frozen.checksum()}
    return frozen, tokenizer, log


# ---------------------------------------------------------------------------
# interpretability probes
# ---------------------------------------------------------------------------


def attention_probe(result: ForwardResult, seq: TokenSequence, object_pos: int) -> np.ndarray:
    """Per-layer mean (over heads) attention mass from one token onto visuals."""
    if not 0 <= object_pos < len(seq.ids):
        raise ContractError(f"position {object_pos} out of range")
    if seq.roles[object_pos] != Role.ANSWER:
        raise ContractError("object position must lie in the answer region")
    m = result.n_visual
    if m == 0:
        return np.zeros(len(result.attentions))
    return np.array([
        attn[:, object_pos, :m].sum(axis=1).mean() for attn in result.attentions
    ])


def logit_lens(vlm: VLM, result: ForwardResult, positions: list[int]) -> np.ndarray:
    """Decode intermediate hidden states through the final head.

    Returns probabilities with shape [layers, len(positions), vocab]; layer
    index ell reads hiddens[ell + 1] (the residual stream after layer ell).
    """
    n = result.hiddens[0].shape[0]
    for p in positions:
        if not 0 <= p < n:
            raise ContractError(f"position {p} out of range 0..{n - 1}")
    head = vlm.head_array()
    rows = []
    for ell in range(1, len(result.hiddens)):
        h = result.hiddens[ell].array[positions]
        logits = h @ head
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        rows.append(e / e.sum(axis=1, keepdims=True))
    return np.stack(rows)


def token_rank(prob_row: np.ndarray, token_id: int) -> int:
    """0-based rank under descending probability; ties break by token id."""
    p = prob_row[token_id]
    higher = int((prob_row > p).sum())
    tied_before = int((prob_row[:token_id] == p).sum())
    return higher + tied_before
