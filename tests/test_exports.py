"""The package's public names, the names the benchmark hooks into, and the
names README.md cites."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import rare_lens

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"

# A backticked name ending in one of these is a file, such as `vlm.ckpt`.
FILE_SUFFIXES = {"bin", "ckpt", "csv", "json", "md", "pgm", "py", "svg", "tmp"}

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


def test_every_module_name_the_readme_cites_resolves():
    """`module.name` in README.md, module one of the package's, names an attribute."""
    modules = {info.name for info in pkgutil.iter_modules(rare_lens.__path__)}
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    cited, missing = [], []
    for span in re.findall(r"`([^`]+)`", text):
        name = re.match(r"(?:rare_lens\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", span)
        if name is None:
            continue
        module, *path = name.group(1).split(".")
        if module not in modules or path[-1] in FILE_SUFFIXES:
            continue
        cited.append(name.group(1))
        owner = importlib.import_module(f"rare_lens.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name.group(1))
    assert cited and missing == []
