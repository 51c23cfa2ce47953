"""Synthetic imbalanced rare-object benchmark plus frozen encoder surrogates.

Scenes are patch-feature grids rather than raster images: one planted class
signature inside a bounding box, gaussian background elsewhere. The vision
encoder is a fixed orthogonal map over patch vectors; the text encoder is a
class-anchored word-embedding table. Everything in this module is a pure
function of (config, seed) and never receives gradient updates.

dataset/manifest.json stores what generation drew and nothing it can derive:
the config section, the seed, the class names, the rare class ids and one
record per scene in generation order (class id, bbox, question, split). A
scene's id is its place in that order, and counts, the train/test id lists
and answers follow from the records and the config. Only this module knows
the layout.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .base import from_json, json_fits, json_object, write_atomic
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
class SceneMeta:
    scene_id: str
    class_id: int
    bbox: tuple[int, int, int, int]  # (row0, col0, row1, col1), end-exclusive
    question: str
    answer: str  # the class name, names[class_id]
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
        if self.n_classes < 2 or self.grid < 4 or self.d_v < 8 or self.d_t < 1:
            raise ConfigError("need n_classes >= 2, grid >= 4, d_v >= 8, d_t >= 1")
        if not 0 <= self.rare_count <= self.n_classes:
            raise ConfigError("rare_count must lie in [0, n_classes]")
        if self.rare_count and not 1 <= self.rare_n <= 10:
            raise ConfigError("rare classes need 1 <= rare_n <= 10")
        if self.rare_count < self.n_classes and self.common_n < 100:
            raise ConfigError("common classes need common_n >= 100")
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
    """What generation drew for (config, seed); the rest is derived from it."""

    config: DatasetConfig
    seed: int
    names: list[str]
    rare_ids: list[int]
    scene_meta: dict[str, SceneMeta]  # in generation order

    @property
    def n_classes(self) -> int:
        return self.config.n_classes

    @property
    def counts(self) -> dict[int, int]:
        """Train scenes per class, N_c."""
        cfg = self.config
        return {c: cfg.rare_n if c in self.rare_ids else cfg.common_n for c in range(cfg.n_classes)}

    @property
    def train_ids(self) -> list[str]:
        return [sid for sid, meta in self.scene_meta.items() if meta.split == "train"]

    @property
    def test_ids(self) -> list[str]:
        return [sid for sid, meta in self.scene_meta.items() if meta.split == "test"]


@dataclass
class World:
    """A fully materialized benchmark: manifest, grids, text pools."""

    manifest: DatasetManifest
    grids: dict[str, np.ndarray]  # scene_id -> [g, g, d_v] float64 (f32-exact)
    pools: TextPool

    def scenes(self, split: str) -> list[SceneMeta]:
        return [meta for meta in self.manifest.scene_meta.values() if meta.split == split]

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
    rng: np.random.Generator, cfg: DatasetConfig, signature: np.ndarray
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """One scene grid: background noise, alpha*signature + noise inside a box."""
    g, d_v, noise = cfg.grid, cfg.d_v, cfg.noise
    grid = rng.normal(scale=noise, size=(g, g, d_v))
    h = int(rng.integers(2, min(3, g) + 1))
    w = int(rng.integers(2, min(3, g) + 1))
    r0 = int(rng.integers(0, g - h + 1))
    c0 = int(rng.integers(0, g - w + 1))
    bbox = (r0, c0, r0 + h, c0 + w)
    grid[r0 : r0 + h, c0 : c0 + w, :] = cfg.alpha * signature + rng.normal(
        scale=noise, size=(h, w, d_v)
    )
    # Canonical precision is the on-disk f32 payload.
    return grid.astype(np.float32).astype(np.float64), bbox


def random_object_grid(
    rng: np.random.Generator, cfg: DatasetConfig
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """A scene with an unfamiliar planted direction (no class attached)."""
    return _synth_grid(rng, cfg, _unit(rng.normal(size=cfg.d_v)))


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
    n_classes = cfg.n_classes
    root = np.random.SeedSequence(seed)
    rng_names, rng_sigs, rng_scene, rng_pool, rng_rare = (
        np.random.default_rng(s) for s in root.spawn(5)
    )

    names = _make_names(rng_names, n_classes)
    sigs = _draw_signatures(rng_sigs, n_classes, cfg.d_v)
    rare_ids = sorted(
        int(i)
        for i in rng_rare.choice(n_classes, size=cfg.rare_count, replace=False)
    )
    manifest = DatasetManifest(cfg, seed, names, rare_ids, {})

    grids: dict[str, np.ndarray] = {}
    for cid, n_train in manifest.counts.items():
        for split, n in (("train", n_train), ("test", cfg.test_per_class)):
            for _ in range(n):
                sid = _scene_id(len(grids))
                grid, bbox = _synth_grid(rng_scene, cfg, sigs[cid])
                question = QUESTION_TEMPLATES[int(rng_scene.integers(len(QUESTION_TEMPLATES)))]
                grids[sid] = grid
                manifest.scene_meta[sid] = SceneMeta(sid, cid, bbox, question, names[cid], split)

    pools, _ = _make_pools(rng_pool, names)
    return World(manifest, grids, pools)


def _scene_id(index: int) -> str:
    """The id of the scene drawn index-th, which names its scenes/<id>.bin."""
    return f"s{index:05d}"


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
        return cls(m.config.d_v, m.seed, identity=m.config.vision_identity)

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
        return cls(m.config.d_t, m.seed, word_class, m.n_classes)

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
    """Write one scene file atomically: a reader finds the old file or the new one."""
    g, _, d_v = grid.shape
    header = SCENE_MAGIC + struct.pack("<HII", SCENE_VERSION, g, d_v)
    write_atomic(path, header + grid.astype("<f4").tobytes())


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
        "config": asdict(m.config),
        "seed": m.seed,
        "names": m.names,
        "rare_ids": m.rare_ids,
        "scenes": [
            {"class_id": meta.class_id, "bbox": list(meta.bbox), "question": meta.question,
             "split": meta.split}
            for meta in m.scene_meta.values()
        ],
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


def _expect(ok: bool, what: str, kind: str, value) -> None:
    if not ok:
        raise ArtifactError(f"manifest.json: {what} must be {kind}, got {value!r:.40}")


def _list_of(value, kind: type) -> bool:
    return type(value) is list and all(json_fits(v, kind) for v in value)


def _manifest_from_json(doc) -> DatasetManifest:
    """Read manifest.json strictly: any wrong shape or type is an ArtifactError."""
    doc = json_object(doc, "manifest.json", "config", "seed", "names", "rare_ids", "scenes")
    try:
        cfg = from_json(DatasetConfig, doc["config"], "config")
    except ConfigError as err:
        raise ArtifactError(f"manifest.json: {err}") from err
    names, rare_ids, scenes = doc["names"], doc["rare_ids"], doc["scenes"]
    n = cfg.n_classes
    _expect(json_fits(doc["seed"], int), "seed", "an int", doc["seed"])
    _expect(_list_of(names, str) and len(names) == n, "names", f"{n} strings", names)
    _expect(_list_of(rare_ids, int) and set(rare_ids) <= set(range(n)), "rare_ids",
            "a list of class ids", rare_ids)
    manifest = DatasetManifest(cfg, doc["seed"], names, rare_ids, {})
    total = sum(manifest.counts.values()) + n * cfg.test_per_class
    _expect(type(scenes) is list and len(scenes) == total, "scenes", f"{total} records", scenes)
    for i, rec in enumerate(scenes):
        at = f"scenes.{i}"
        rec = json_object(rec, f"manifest.json: {at}", "class_id", "bbox", "question", "split")
        cid, bbox, question, split = rec["class_id"], rec["bbox"], rec["question"], rec["split"]
        _expect(json_fits(cid, int) and 0 <= cid < n, f"{at}.class_id", "a class id", cid)
        _expect(_list_of(bbox, int) and len(bbox) == 4, f"{at}.bbox", "4 ints", bbox)
        _expect(type(question) is str, f"{at}.question", "a string", question)
        _expect(split in ("train", "test"), f"{at}.split", "train or test", split)
        sid = _scene_id(i)
        manifest.scene_meta[sid] = SceneMeta(sid, cid, tuple(bbox), question, names[cid], split)
    return manifest


def _pools_from_json(doc) -> TextPool:
    doc = {
        int(k): json_object(v, f"textpool.json class {k}", "lexical_variants", "attribute_phrases")
        for k, v in json_object(doc, "textpool.json").items()
    }
    return TextPool(
        {k: tuple(v["lexical_variants"]) for k, v in doc.items()},
        {k: tuple(v["attribute_phrases"]) for k, v in doc.items()},
    )
