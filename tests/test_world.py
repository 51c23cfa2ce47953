"""Benchmark generator, frozen encoders, and frequency-aware re-sampling."""

import builtins
import dataclasses
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rare_lens import world as w
from rare_lens.errors import ArtifactError, ChecksumError, ConfigError, ContractError

SMALL = w.DatasetConfig(n_classes=2, grid=4, d_v=16, d_t=16, rare_count=0, rare_n=5,
                        common_n=100, test_per_class=5, alpha=4.0)
IMBALANCED = w.DatasetConfig(n_classes=6, grid=5, d_v=24, d_t=24, rare_count=2, rare_n=5,
                             common_n=100, test_per_class=5, alpha=4.0)


@pytest.fixture(scope="module")
def tiny_world():
    return w.generate_dataset(SMALL, seed=7)


@pytest.fixture(scope="module")
def imbalanced_world():
    return w.generate_dataset(IMBALANCED, seed=3)


def test_generation_is_deterministic(tiny_world):
    again = w.generate_dataset(SMALL, seed=7)
    assert again.manifest.names == tiny_world.manifest.names
    for sid, grid in tiny_world.grids.items():
        assert np.array_equal(grid, again.grids[sid])
    assert again.pools == tiny_world.pools


def test_splits_are_disjoint(tiny_world):
    m = tiny_world.manifest
    assert not set(m.train_ids) & set(m.test_ids)
    assert len(m.train_ids) == 200 and len(m.test_ids) == 10


def test_manifest_counts_match_profile(imbalanced_world):
    m = imbalanced_world.manifest
    assert len(m.rare_ids) == 2
    for cid, n in m.counts.items():
        expected = 5 if cid in m.rare_ids else 100
        assert n == expected
        assert sum(1 for s in m.scene_meta.values() if s.class_id == cid and s.split == "train") == n


def test_signatures_unit_norm_and_spread():
    sigs = w._draw_signatures(np.random.default_rng(3), count=6, d_v=24)
    assert len(sigs) == 6
    for s in sigs:
        assert abs(np.linalg.norm(s) - 1.0) < 1e-9
    for i in range(len(sigs)):
        for j in range(i + 1, len(sigs)):
            assert float(sigs[i] @ sigs[j]) <= 0.3


def test_class_names_unique(imbalanced_world):
    names = imbalanced_world.manifest.names
    assert len(set(names)) == len(names)


def test_linear_probe_oracle_on_train_split(imbalanced_world):
    """Least-squares probe on pooled crops must reach the 99% sanity floor."""
    enc = w.VisionEncoder.for_world(imbalanced_world)
    feats, labels = [], []
    for meta in imbalanced_world.scenes("train"):
        feats.append(w.crop_and_pool(enc, imbalanced_world.grid(meta.scene_id), meta.bbox))
        labels.append(meta.class_id)
    x = np.column_stack([np.array(feats), np.ones(len(feats))])
    y = np.eye(imbalanced_world.manifest.n_classes)[labels]
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    acc = np.mean(np.argmax(x @ coef, axis=1) == np.array(labels))
    assert acc >= 0.99


def test_encode_vision_identity_config():
    world = w.generate_dataset(dataclasses.replace(SMALL, vision_identity=True), seed=7)
    enc = w.VisionEncoder.for_world(world)
    sid = world.manifest.train_ids[0]
    grid = world.grid(sid)
    assert np.array_equal(enc.encode(grid), grid.reshape(16, 16))


def test_encode_vision_frozen_and_orthogonal(tiny_world):
    enc = w.VisionEncoder.for_world(tiny_world)
    grid = tiny_world.grid(tiny_world.manifest.train_ids[0])
    assert np.array_equal(enc.encode(grid), enc.encode(grid))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=16)
        assert abs(np.linalg.norm(enc.matrix @ x) - np.linalg.norm(x)) < 1e-9


def test_crop_and_pool_single_patch_and_full_grid(tiny_world):
    enc = w.VisionEncoder.for_world(tiny_world)
    grid = tiny_world.grid(tiny_world.manifest.train_ids[0])
    tokens = enc.encode(grid)
    one = w.crop_and_pool(enc, grid, (1, 2, 2, 3))
    assert np.abs(one - tokens[1 * 4 + 2]).max() < 1e-12
    full = w.crop_and_pool(enc, grid, (0, 0, 4, 4))
    assert np.abs(full - tokens.mean(axis=0)).max() < 1e-12


def test_crop_and_pool_matches_loop_oracle(tiny_world):
    enc = w.VisionEncoder.for_world(tiny_world)
    grid = tiny_world.grid(tiny_world.manifest.train_ids[3])
    bbox = (1, 1, 3, 3)
    acc = np.zeros(16)
    count = 0
    for r in range(4):
        for c in range(4):
            if bbox[0] <= r < bbox[2] and bbox[1] <= c < bbox[3]:
                acc += enc.encode(grid)[r * 4 + c]
                count += 1
    assert np.abs(w.crop_and_pool(enc, grid, bbox) - acc / count).max() < 1e-12


def test_crop_and_pool_rejects_empty_bbox(tiny_world):
    enc = w.VisionEncoder.for_world(tiny_world)
    grid = tiny_world.grid(tiny_world.manifest.train_ids[0])
    with pytest.raises(ContractError):
        w.crop_and_pool(enc, grid, (2, 2, 2, 3))


def test_encode_text_deterministic_and_unit_norm(imbalanced_world):
    enc = w.TextEncoder.for_world(imbalanced_world)
    phrase = imbalanced_world.pools.phrases(0)[1]
    v1, v2 = enc.encode(phrase), enc.encode(phrase)
    assert np.array_equal(v1, v2)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-9
    with pytest.raises(ContractError):
        enc.encode("   ")


def test_encode_text_class_anchoring_audit(imbalanced_world):
    """Mean within-class pairwise cosine must exceed mean cross-class cosine."""
    enc = w.TextEncoder.for_world(imbalanced_world)
    m = imbalanced_world.manifest
    by_class = [
        [enc.encode(p) for p in imbalanced_world.pools.phrases(cid)]
        for cid in range(m.n_classes)
    ]
    within, cross = [], []
    for a in range(m.n_classes):
        for i in range(len(by_class[a])):
            for j in range(i + 1, len(by_class[a])):
                within.append(float(by_class[a][i] @ by_class[a][j]))
        for b in range(a + 1, m.n_classes):
            for va in by_class[a]:
                for vb in by_class[b]:
                    cross.append(float(va @ vb))
    assert np.mean(within) > np.mean(cross)


def test_resample_equal_counts_give_equal_quotas():
    quotas = w.resample_quotas({0: 7, 1: 7, 2: 7}, budget=10)
    values = sorted(quotas.values())
    assert sum(values) == 10 and values[-1] - values[0] <= 1


def test_resample_exact_inverse_proportionality():
    assert w.resample_quotas({0: 1, 1: 9}, budget=10) == {0: 9, 1: 1}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 300), min_size=2, max_size=8),
    st.integers(0, 200),
)
def test_resample_quotas_sum_to_budget_and_are_monotone(ns, extra):
    counts = {i: n for i, n in enumerate(ns)}
    budget = len(ns) + extra
    quotas = w.resample_quotas(counts, budget)
    assert sum(quotas.values()) == budget
    for a in counts:
        for b in counts:
            if counts[a] < counts[b]:
                assert quotas[a] >= quotas[b]


def test_adaptive_resample_draws_without_replacement_then_cycles(imbalanced_world):
    m = imbalanced_world.manifest
    drawn = w.adaptive_resample(imbalanced_world.pools, m.counts, budget=120, seed=1)
    assert len(drawn) == 120
    quotas = w.resample_quotas(m.counts, 120)
    per_class: dict[int, list[str]] = {}
    for cid, phrase in drawn:
        per_class.setdefault(cid, []).append(phrase)
    for cid, phrases in per_class.items():
        assert len(phrases) == quotas[cid]
        pool_size = len(imbalanced_world.pools.phrases(cid))
        expect_distinct = min(quotas[cid], pool_size)
        assert len(set(phrases)) == expect_distinct


def test_rare_classes_get_more_distinct_phrases(imbalanced_world):
    m = imbalanced_world.manifest
    drawn = w.adaptive_resample(imbalanced_world.pools, m.counts, budget=40, seed=1)
    distinct: dict[int, set] = {}
    for cid, phrase in drawn:
        distinct.setdefault(cid, set()).add(phrase)
    rare = min(len(distinct.get(c, set())) for c in m.rare_ids)
    common = max(
        len(distinct.get(c, set()))
        for c in range(m.n_classes)
        if c not in m.rare_ids
    )
    assert rare > common


def test_scene_file_round_trip(tmp_path, tiny_world):
    sid = tiny_world.manifest.train_ids[0]
    path = tmp_path / "scene.bin"
    w.write_scene(path, tiny_world.grid(sid))
    assert np.array_equal(w.read_scene(path), tiny_world.grid(sid))


def flip_version(raw: bytes) -> bytes:
    """Damage the u16 version field that follows the 4-byte magic."""
    return raw[:4] + bytes([raw[4] ^ 0x07]) + raw[5:]


def damaged_scene(tmp_path, world, damage):
    path = tmp_path / "scene.bin"
    w.write_scene(path, world.grid(world.manifest.train_ids[0]))
    path.write_bytes(damage(path.read_bytes()))
    return path


class ShortWrite:
    """A file that takes `budget` bytes and then fails like a full disk."""

    def __init__(self, fh, budget: int):
        self.fh, self.budget = fh, budget

    def write(self, data) -> int:
        data = memoryview(data).cast("B")
        self.fh.write(data[: self.budget])
        if len(data) > self.budget:
            raise OSError(28, "No space left on device")
        self.budget -= len(data)
        return len(data)

    def close(self) -> None:
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def test_interrupted_scene_write_keeps_the_previous_file_whole(tmp_path, tiny_world, monkeypatch):
    old_sid, new_sid = tiny_world.manifest.train_ids[:2]
    path = tmp_path / "scene.bin"
    w.write_scene(path, tiny_world.grid(old_sid))
    old = path.read_bytes()
    real_open = io.open

    def short_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return ShortWrite(fh, len(old) // 2) if "w" in mode else fh

    with monkeypatch.context() as patch:  # builtin open and the one pathlib calls
        patch.setattr(builtins, "open", short_open)
        patch.setattr(io, "open", short_open)
        with pytest.raises(OSError, match="No space left"):
            w.write_scene(path, tiny_world.grid(new_sid))
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.bin"]
    w.write_scene(path, tiny_world.grid(new_sid))
    assert np.array_equal(w.read_scene(path), tiny_world.grid(new_sid))


def test_truncated_scene_file_rejected(tmp_path, tiny_world):
    with pytest.raises(ChecksumError, match="payload bytes"):
        w.read_scene(damaged_scene(tmp_path, tiny_world, lambda raw: raw[:-7]))


def test_scene_file_with_a_cut_magic_rejected(tmp_path, tiny_world):
    with pytest.raises(ChecksumError, match="bad scene magic"):
        w.read_scene(damaged_scene(tmp_path, tiny_world, lambda raw: raw[:2]))


def test_scene_file_with_a_flipped_version_rejected(tmp_path, tiny_world):
    with pytest.raises(ChecksumError, match="unsupported scene version 6"):
        w.read_scene(damaged_scene(tmp_path, tiny_world, flip_version))


def test_dataset_save_load_round_trip(tmp_path, imbalanced_world):
    out = tmp_path / "ds"
    w.save_dataset(imbalanced_world, out)
    loaded = w.load_dataset(out)
    assert loaded.manifest == imbalanced_world.manifest
    for sid in imbalanced_world.manifest.test_ids:
        assert np.array_equal(loaded.grid(sid), imbalanced_world.grid(sid))
    assert loaded.pools == imbalanced_world.pools
    again = tmp_path / "ds2"
    w.save_dataset(loaded, again)
    assert (out / "manifest.json").read_bytes() == (again / "manifest.json").read_bytes()
    assert (out / "textpool.json").read_bytes() == (again / "textpool.json").read_bytes()


def set_at(doc, path: str, value):
    """A copy of a manifest document with the value at a dotted path replaced."""
    key, _, rest = path.partition(".")
    if isinstance(doc, list):
        key = int(key)
        return [set_at(v, rest, value) if i == key else v for i, v in enumerate(doc)]
    return {**doc, key: set_at(doc[key], rest, value) if rest else value}


# The ids of the cases that predate the config section name the field they damage there.
@pytest.mark.parametrize("path, value", [
    ("config.grid", "4"), ("config.alpha", "4"), ("config.vision_identity", "yes"),
    ("config.noise", None), ("config.d_v", 16.0), ("seed", True), ("config.d_t", [8]),
    ("rare_ids", [0.5]), ("rare_ids", 1), ("scenes.3.split", "val"), ("names", [8]),
    ("scenes.0.class_id", "1"), ("scenes.0.bbox", "0,0,2,2"), ("scenes.0.class_id", 2),
], ids=["g-4", "alpha-4", "vision_identity-yes", "noise-None", "d_v-16.0", "seed-True",
        "d_t-value6", "rare_ids-value7", "rare_ids-1", "scene-split-not-train-or-test",
        "names-value10", "scene-class-id-a-string", "scene-bbox-a-string",
        "scene-class-id-outside-names"])
def test_wrong_typed_manifest_scalar_is_an_artifact_error(tmp_path, tiny_world, path, value):
    out = tmp_path / "ds"
    w.save_dataset(tiny_world, out)
    doc = json.loads((out / "manifest.json").read_text())
    (out / "manifest.json").write_text(json.dumps(set_at(doc, path, value)))
    with pytest.raises(ArtifactError, match=re.escape(f"manifest.json: {path}")):
        w.load_dataset(out)


def test_infeasible_signature_config_raises():
    with pytest.raises(ConfigError):
        w._draw_signatures(np.random.default_rng(0), count=50, d_v=8, max_cos=0.05)


def test_budget_below_class_count_rejected():
    with pytest.raises(ConfigError):
        w.resample_quotas({0: 1, 1: 2, 2: 3}, budget=2)


def test_adaptive_resample_empty_pool_rejected():
    pools = w.TextPool({0: (), 1: ("x",)}, {0: (), 1: ()})
    with pytest.raises(ConfigError):
        w.adaptive_resample(pools, {0: 1, 1: 1}, budget=4, seed=0)
