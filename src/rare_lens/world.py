"""Synthetic imbalanced rare-object benchmark plus frozen encoder surrogates.

Scenes are patch-feature grids rather than raster images: one planted class
signature inside a bounding box, gaussian background elsewhere. The vision
encoder is a fixed orthogonal map over patch vectors; the text encoder is a
class-anchored word-embedding table. Everything in this module is a pure
function of (config, seed) and never receives gradient updates.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .base import json_object, write_atomic
from .errors import ArtifactError, ChecksumError, ConfigError, ContractError, DegenerateVectorError
from .prompting import QUESTION_TEMPLATES

SCENE_MAGIC = b"RLSC"
SCENE_VERSION = 1

_SYLLABLES = (
    "ba be bo bu da de do du ga ge go gu ka ke ko ku la le lo lu ma me mo mu "
    "na ne no nu pa pe po pu ra re ro ru sa se so su ta te to tu va ve vo vu "
    "za ze zo zu"
).split()

_ADJECTIVES = (
    "ribbed compact weathered angular glossy matte hollow banded flared "
    "studded tapered coiled"
).split()


@dataclass(frozen=True)
class ClassSpec:
    class_id: int
    name: str
    signature: np.ndarray  # unit-norm planted direction, length d_v
    frequency_weight: float  # equals the train-sample count N_c


@dataclass(frozen=True)
class SceneMeta:
    scene_id: str
    class_id: int
    bbox: tuple[int, int, int, int]  # (row0, col0, row1, col1), end-exclusive
    question: str
    answer: str
    split: str  # "train" | "test"


@dataclass(frozen=True)
class DatasetConfig:
    """Benchmark shape and imbalance: rare classes get rare_n train scenes."""

    n_classes: int = 12
    grid: int = 5
    d_v: int = 32
    d_t: int = 32
    rare_count: int = 4
    rare_n: int = 5
    common_n: int = 200
    test_per_class: int = 20
    alpha: float = 8.0
    noise: float = 1.0
    vision_identity: bool = False

    def validate(self) -> None:
        if self.n_classes < 2 or self.grid < 4 or self.d_v < 8:
            raise ConfigError("need C >= 2, g >= 4, d_v >= 8")
        if not 0 <= self.rare_count <= self.n_classes:
            raise ConfigError("rare_count must lie in [0, C]")
        if self.rare_count and self.rare_n > 10:
            raise ConfigError("rare classes need N_c <= 10")
        if self.rare_count < self.n_classes and self.common_n < 100:
            raise ConfigError("common classes need N_c >= 100")
        if self.test_per_class < 1:
            raise ConfigError("test_per_class must be >= 1")


@dataclass(frozen=True)
class TextPool:
    lexical_variants: dict[int, tuple[str, ...]]
    attribute_phrases: dict[int, tuple[str, ...]]

    def phrases(self, class_id: int) -> tuple[str, ...]:
        return self.lexical_variants[class_id] + self.attribute_phrases[class_id]


@dataclass
class DatasetManifest:
    classes: list[ClassSpec]
    counts: dict[int, int]
    train_ids: list[str]
    test_ids: list[str]
    scene_meta: dict[str, SceneMeta]
    seed: int
    g: int
    d_v: int
    d_t: int
    alpha: float
    noise: float
    vision_identity: bool
    rare_ids: list[int] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.classes]


@dataclass
class World:
    """A fully materialized benchmark: manifest, grids, text pools."""

    manifest: DatasetManifest
    grids: dict[str, np.ndarray]  # scene_id -> [g, g, d_v] float64 (f32-exact)
    pools: TextPool

    def scenes(self, split: str) -> list[SceneMeta]:
        ids = self.manifest.train_ids if split == "train" else self.manifest.test_ids
        return [self.manifest.scene_meta[i] for i in ids]

    def grid(self, scene_id: str) -> np.ndarray:
        return self.grids[scene_id]


def _word_rng(seed: int, word: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{seed}:{word}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0:
        raise DegenerateVectorError("cannot normalize a zero vector")
    return v / n


def _make_names(rng: np.random.Generator, count: int) -> list[str]:
    reserved = set(" ".join(QUESTION_TEMPLATES).split()) | set(_ADJECTIVES)
    names: list[str] = []
    seen = set(reserved)
    while len(names) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        if word not in seen:
            seen.add(word)
            names.append(word)
    return names


def _draw_signatures(
    rng: np.random.Generator, count: int, d_v: int, max_cos: float = 0.3
) -> list[np.ndarray]:
    sigs: list[np.ndarray] = []
    draws = 0
    while len(sigs) < count:
        if draws >= 10 * count:
            raise ConfigError(
                f"could not place {count} signatures with pairwise cosine "
                f"<= {max_cos} in {draws} draws; raise d_v or max_cos"
            )
        draws += 1
        cand = _unit(rng.normal(size=d_v))
        if all(abs(float(cand @ s)) <= max_cos for s in sigs):
            sigs.append(cand)
    return sigs


def _synth_grid(
    rng: np.random.Generator,
    g: int,
    d_v: int,
    signature: np.ndarray,
    alpha: float,
    noise: float,
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """One scene grid: background noise, alpha*signature + noise inside a box."""
    grid = rng.normal(scale=noise, size=(g, g, d_v))
    h = int(rng.integers(2, min(3, g) + 1))
    w = int(rng.integers(2, min(3, g) + 1))
    r0 = int(rng.integers(0, g - h + 1))
    c0 = int(rng.integers(0, g - w + 1))
    bbox = (r0, c0, r0 + h, c0 + w)
    grid[r0 : r0 + h, c0 : c0 + w, :] = alpha * signature + rng.normal(
        scale=noise, size=(h, w, d_v)
    )
    # Canonical precision is the on-disk f32 payload.
    return grid.astype(np.float32).astype(np.float64), bbox


def random_object_grid(
    rng: np.random.Generator, g: int, d_v: int, alpha: float, noise: float
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """A scene with an unfamiliar planted direction (no class attached)."""
    return _synth_grid(rng, g, d_v, _unit(rng.normal(size=d_v)), alpha, noise)


def _make_pools(
    rng: np.random.Generator, names: list[str]
) -> tuple[TextPool, dict[str, int]]:
    """Per-class phrase pools plus the word -> class anchoring map."""
    lex: dict[int, tuple[str, ...]] = {}
    attr: dict[int, tuple[str, ...]] = {}
    word_class: dict[str, int] = {}
    taken = set(names) | set(_ADJECTIVES)
    for cid, name in enumerate(names):
        extra: list[str] = []
        while len(extra) < 6:
            word = "".join(rng.choice(_SYLLABLES) for _ in range(2 + len(extra) % 2))
            if word not in taken:
                taken.add(word)
                extra.append(word)
        synonyms, stems = extra[:3], extra[3:]
        for word in [name] + extra:
            word_class[word] = cid
        lex[cid] = tuple([name] + synonyms)
        phrases = []
        for stem in stems:
            for adj in rng.choice(_ADJECTIVES, size=4, replace=False):
                phrases.append(f"{adj} {stem}")
        attr[cid] = tuple(phrases)
    return TextPool(lex, attr), word_class


def generate_dataset(cfg: DatasetConfig, seed: int) -> World:
    """Deterministic benchmark generation; every output is f32-exact."""
    cfg.validate()
    n_classes, g, d_v = cfg.n_classes, cfg.grid, cfg.d_v
    root = np.random.SeedSequence(seed)
    rng_names, rng_sigs, rng_scene, rng_pool, rng_rare = (
        np.random.default_rng(s) for s in root.spawn(5)
    )

    names = _make_names(rng_names, n_classes)
    sigs = _draw_signatures(rng_sigs, n_classes, d_v)
    rare_ids = sorted(
        int(i)
        for i in rng_rare.choice(n_classes, size=cfg.rare_count, replace=False)
    )
    counts = {
        cid: (cfg.rare_n if cid in rare_ids else cfg.common_n)
        for cid in range(n_classes)
    }
    classes = [
        ClassSpec(cid, names[cid], sigs[cid], float(counts[cid]))
        for cid in range(n_classes)
    ]

    grids: dict[str, np.ndarray] = {}
    scene_meta: dict[str, SceneMeta] = {}
    train_ids: list[str] = []
    test_ids: list[str] = []
    idx = 0
    for cid in range(n_classes):
        for split, n in (("train", counts[cid]), ("test", cfg.test_per_class)):
            for _ in range(n):
                sid = f"s{idx:05d}"
                idx += 1
                grid, bbox = _synth_grid(rng_scene, g, d_v, sigs[cid], cfg.alpha, cfg.noise)
                question = QUESTION_TEMPLATES[int(rng_scene.integers(len(QUESTION_TEMPLATES)))]
                grids[sid] = grid
                scene_meta[sid] = SceneMeta(sid, cid, bbox, question, names[cid], split)
                (train_ids if split == "train" else test_ids).append(sid)

    pools, _ = _make_pools(rng_pool, names)
    manifest = DatasetManifest(
        classes=classes,
        counts=counts,
        train_ids=train_ids,
        test_ids=test_ids,
        scene_meta=scene_meta,
        seed=seed,
        g=g,
        d_v=d_v,
        d_t=cfg.d_t,
        alpha=cfg.alpha,
        noise=cfg.noise,
        vision_identity=cfg.vision_identity,
        rare_ids=rare_ids,
    )
    return World(manifest, grids, pools)


# ---------------------------------------------------------------------------
# frozen encoders
# ---------------------------------------------------------------------------


class VisionEncoder:
    """Frozen surrogate VFM: flatten the grid, apply a fixed orthogonal map."""

    def __init__(self, d_v: int, seed: int, identity: bool = False):
        self.d_v = d_v
        if identity:
            self.matrix = np.eye(d_v)
        else:
            raw = np.random.default_rng(
                np.random.SeedSequence([seed, 3021])
            ).normal(size=(d_v, d_v))
            q, r = np.linalg.qr(raw)
            self.matrix = q * np.sign(np.diag(r))  # fix QR sign ambiguity

    @classmethod
    def for_world(cls, world: World) -> "VisionEncoder":
        m = world.manifest
        return cls(m.d_v, m.seed, identity=m.vision_identity)

    def encode(self, grid: np.ndarray) -> np.ndarray:
        """[g, g, d_v] -> [M, d_v] tokens, M = g*g, row-major patch order."""
        g1, g2, d = grid.shape
        if d != self.d_v:
            raise ContractError(f"grid feature dim {d} != encoder d_v {self.d_v}")
        return grid.reshape(g1 * g2, d) @ self.matrix.T


def crop_and_pool(
    encoder: VisionEncoder, grid: np.ndarray, bbox: tuple[int, int, int, int]
) -> np.ndarray:
    """Mean of encoded patch tokens whose grid index falls inside bbox."""
    r0, c0, r1, c1 = bbox
    g = grid.shape[0]
    if r1 <= r0 or c1 <= c0:
        raise ContractError(f"empty bbox {bbox}")
    tokens = encoder.encode(grid)
    rows = np.repeat(np.arange(g), g)
    cols = np.tile(np.arange(g), g)
    inside = (rows >= r0) & (rows < r1) & (cols >= c0) & (cols < c1)
    return tokens[inside].mean(axis=0)


class TextEncoder:
    """Frozen surrogate CLIP text encoder over a class-anchored word table.

    Words that belong to a class pool embed at their class's latent anchor
    plus half a hash-seeded noise row; all other words get the noise row.
    Phrase embedding is the mean of word rows, unit-normalized.
    """

    def __init__(self, d_t: int, seed: int, word_class: dict[str, int], n_classes: int):
        self.d_t = d_t
        self.seed = seed
        self.word_class = dict(word_class)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7747]))
        self.anchors = np.stack([_unit(rng.normal(size=d_t)) for _ in range(n_classes)])

    @classmethod
    def for_world(cls, world: World) -> "TextEncoder":
        m = world.manifest
        word_class: dict[str, int] = {}
        for cid in range(m.n_classes):
            for phrase in world.pools.phrases(cid):
                for word in phrase.split():
                    if word not in _ADJECTIVES:
                        word_class[word] = cid
        return cls(m.d_t, m.seed, word_class, m.n_classes)

    def _word_row(self, word: str) -> np.ndarray:
        eta = _unit(_word_rng(self.seed, word).normal(size=self.d_t))
        cid = self.word_class.get(word)
        if cid is None:
            return eta
        return _unit(self.anchors[cid] + 0.5 * eta)

    def encode(self, phrase: str) -> np.ndarray:
        words = phrase.lower().split()
        if not words:
            raise ContractError("cannot encode an empty phrase")
        return _unit(np.mean([self._word_row(w) for w in words], axis=0))


# ---------------------------------------------------------------------------
# frequency-aware text re-sampling
# ---------------------------------------------------------------------------


def resample_quotas(counts: dict[int, int], budget: int) -> dict[int, int]:
    """Per-class phrase quotas proportional to 1/N_c, largest-remainder rounded."""
    if budget < len(counts):
        raise ConfigError("budget must be at least the class count")
    cids = sorted(counts)
    weights = np.array([1.0 / counts[c] for c in cids])
    exact = budget * weights / weights.sum()
    quotas = np.floor(exact).astype(int)
    remainders = exact - quotas
    short = budget - int(quotas.sum())
    # Ties broken by ascending class id (stable sort on -remainder).
    order = np.argsort(-remainders, kind="stable")
    for j in order[:short]:
        quotas[j] += 1
    return {c: int(q) for c, q in zip(cids, quotas)}


def adaptive_resample(
    pools: TextPool, counts: dict[int, int], budget: int, seed: int = 0
) -> list[tuple[int, str]]:
    """Draw (class_id, phrase) pairs: rare classes get the most variants.

    Within a class, sampling is without replacement until the pool is
    exhausted, then cycles through the same shuffled order.
    """
    quotas = resample_quotas(counts, budget)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9203]))
    out: list[tuple[int, str]] = []
    for cid in sorted(quotas):
        phrases = list(pools.phrases(cid))
        if not phrases:
            raise ConfigError(f"class {cid} has an empty text pool")
        order = rng.permutation(len(phrases))
        for i in range(quotas[cid]):
            out.append((cid, phrases[order[i % len(phrases)]]))
    return out


# ---------------------------------------------------------------------------
# on-disk layout: manifest.json, scenes/<id>.bin, textpool.json
# ---------------------------------------------------------------------------


def write_scene(path, grid: np.ndarray) -> None:
    g, _, d_v = grid.shape
    payload = grid.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(SCENE_MAGIC)
        fh.write(struct.pack("<HII", SCENE_VERSION, g, d_v))
        fh.write(payload)


def read_scene(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != SCENE_MAGIC:
        raise ChecksumError(f"{path}: bad scene magic {buf[:4]!r}")
    if len(buf) < 14:
        raise ChecksumError(f"{path}: truncated scene header")
    version, g, d_v = struct.unpack_from("<HII", buf, 4)
    if version != SCENE_VERSION:
        raise ChecksumError(f"{path}: unsupported scene version {version}")
    if len(buf) - 14 != g * g * d_v * 4:
        raise ChecksumError(
            f"{path}: {len(buf) - 14} payload bytes, expected {g * g * d_v * 4}"
        )
    return np.frombuffer(buf, dtype="<f4", offset=14).astype(np.float64).reshape(g, g, d_v)


def save_dataset(world: World, out_dir) -> None:
    from pathlib import Path

    out = Path(out_dir)
    (out / "scenes").mkdir(parents=True, exist_ok=True)
    m = world.manifest
    manifest_doc = {
        "seed": m.seed,
        "g": m.g,
        "d_v": m.d_v,
        "d_t": m.d_t,
        "alpha": m.alpha,
        "noise": m.noise,
        "vision_identity": m.vision_identity,
        "rare_ids": m.rare_ids,
        "counts": {str(k): v for k, v in m.counts.items()},
        "classes": [
            {
                "class_id": c.class_id,
                "name": c.name,
                "signature": [float(x) for x in c.signature],
                "frequency_weight": c.frequency_weight,
            }
            for c in m.classes
        ],
        "train_ids": m.train_ids,
        "test_ids": m.test_ids,
        "scenes": {
            sid: {
                "class_id": meta.class_id,
                "bbox": list(meta.bbox),
                "question": meta.question,
                "answer": meta.answer,
                "split": meta.split,
            }
            for sid, meta in sorted(m.scene_meta.items())
        },
    }
    write_atomic(out / "manifest.json", json.dumps(manifest_doc, indent=1, sort_keys=True))
    pool_doc = {
        str(cid): {
            "lexical_variants": list(world.pools.lexical_variants[cid]),
            "attribute_phrases": list(world.pools.attribute_phrases[cid]),
        }
        for cid in range(m.n_classes)
    }
    write_atomic(out / "textpool.json", json.dumps(pool_doc, indent=1, sort_keys=True))
    for sid, grid in world.grids.items():
        write_scene(out / "scenes" / f"{sid}.bin", grid)


def load_dataset(path) -> World:
    from pathlib import Path

    root = Path(path)
    manifest_doc = json.loads((root / "manifest.json").read_text())
    pool_doc = json.loads((root / "textpool.json").read_text())
    try:
        manifest, pools = _manifest_from_json(manifest_doc), _pools_from_json(pool_doc)
    except (AttributeError, TypeError, ValueError) as err:
        # Parsed, but a value has the wrong type: as unusable as a torn file.
        raise ArtifactError(f"{root}: malformed dataset JSON: {err}") from err
    grids = {
        sid: read_scene(root / "scenes" / f"{sid}.bin") for sid in manifest.scene_meta
    }
    return World(manifest, grids, pools)


def _manifest_from_json(doc) -> DatasetManifest:
    # The JSON types each scalar may have (no bool for an int); *_ids are lists of them.
    scalars = {"seed": (int,), "g": (int,), "d_v": (int,), "d_t": (int,),
               "alpha": (int, float), "noise": (int, float), "vision_identity": (bool,),
               "rare_ids": (int,), "train_ids": (str,), "test_ids": (str,)}
    doc = json_object(doc, "manifest.json", *scalars, "counts", "classes", "scenes")
    for key, kinds in scalars.items():
        many = key.endswith("_ids")
        values = doc[key] if many else [doc[key]]
        if type(values) is not list or any(type(v) not in kinds for v in values):
            what = " or ".join(k.__name__ for k in kinds)
            raise ArtifactError(f"manifest.json: {key} must be {'a list of ' * many}{what}, "
                                f"got {doc[key]!r:.40}")
    classes = []
    for c in doc["classes"]:
        c = json_object(c, "manifest.json class", "class_id", "name", "signature",
                        "frequency_weight")
        classes.append(ClassSpec(c["class_id"], c["name"],
                                 np.array(c["signature"], dtype=np.float64), c["frequency_weight"]))
    scene_meta = {}
    for sid, rec in doc["scenes"].items():
        rec = json_object(rec, f"manifest.json scene {sid}", "class_id", "bbox",
                          "question", "answer", "split")
        scene_meta[sid] = SceneMeta(sid, rec["class_id"], tuple(rec["bbox"]),
                                    rec["question"], rec["answer"], rec["split"])
    return DatasetManifest(
        classes=classes,
        counts={int(k): v for k, v in doc["counts"].items()},
        scene_meta=scene_meta,
        **{k: doc[k] for k in scalars},
    )


def _pools_from_json(doc) -> TextPool:
    doc = {
        int(k): json_object(v, f"textpool.json class {k}", "lexical_variants", "attribute_phrases")
        for k, v in json_object(doc, "textpool.json").items()
    }
    return TextPool(
        {k: tuple(v["lexical_variants"]) for k, v in doc.items()},
        {k: tuple(v["attribute_phrases"]) for k, v in doc.items()},
    )
