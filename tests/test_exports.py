"""The package's public names, and the names the benchmark hooks into."""

import importlib
import importlib.util
from pathlib import Path

import rare_lens

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

# Patched by benchmarks/run.py itself, outside the tracer's tables.
RUN_PATCHES = (
    ("harness", "detect_and_answer"),
    ("harness", "pretrain_fixture"),
    ("optim", "AdamW.step"),
)


def test_every_exported_name_resolves():
    missing = [name for name in rare_lens.__all__ if not hasattr(rare_lens, name)]
    assert missing == []


def test_every_name_the_benchmark_hooks_into_exists():
    """A renamed or deleted target would only fail when `--trace 1` installs."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCHMARKS / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, path) for module, path, _ in tracing.SPANS + tracing.OPS]
    missing = []
    for module, path in targets + list(RUN_PATCHES):
        owner = importlib.import_module(f"rare_lens.{module}")
        *outer, last = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if last not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{path}")
    assert missing == []
