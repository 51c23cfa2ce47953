"""Session-scoped mini benchmark and trained artifacts shared across suites."""

import pytest

from rare_lens import vlm as V
from rare_lens import world as w
from rare_lens.adapter import AdapterConfig, VisualTokenAdapter
from rare_lens.embeddings import EmbeddingConfig, train_class_embeddings

MINI_FIXTURE_CFG = V.FixtureConfig(
    epochs=12,
    batch_scenes=8,
    lr=2e-3,
    vlm=V.VLMConfig(layers=2, heads=2, dim=32, ffn_hidden=64, context=64, d_v=16),
)

MINI_EMBED_CFG = EmbeddingConfig(dim=32, epochs_align=5, epochs_joint=5, lr=1e-3)

MINI_FIXTURE_SEED = 0


@pytest.fixture(scope="session")
def mini_world():
    cfg = w.DatasetConfig(n_classes=2, grid=4, d_v=16, d_t=16, rare_count=0, rare_n=5,
                          common_n=100, test_per_class=5, alpha=4.0)
    return w.generate_dataset(cfg, seed=13)


@pytest.fixture(scope="session")
def rare_world():
    cfg = w.DatasetConfig(n_classes=3, grid=4, d_v=16, d_t=16, rare_count=1, rare_n=5,
                          common_n=100, test_per_class=10, alpha=4.0)
    return w.generate_dataset(cfg, seed=21)


@pytest.fixture(scope="session")
def mini_fixture(mini_world):
    model, tokenizer, log = V.pretrain_fixture(mini_world, MINI_FIXTURE_CFG, seed=MINI_FIXTURE_SEED)
    return model, tokenizer, log


@pytest.fixture(scope="session")
def mini_learner(mini_world):
    learner, report = train_class_embeddings(mini_world, MINI_EMBED_CFG, seed=1)
    return learner, report


@pytest.fixture(scope="session")
def mini_adapter(mini_world, mini_fixture, mini_learner):
    model, tokenizer, _ = mini_fixture
    learner, _ = mini_learner
    adapter = VisualTokenAdapter(AdapterConfig(heads=2, epochs=2, per_class_cap=6), seed=0)
    adapter.fit(mini_world, learner.table_, model, tokenizer)
    return adapter
