"""Smoke test: every workload, untraced and traced, on a tiny config.

    python3 -m pytest benchmarks/test_smoke.py -q

Uses the shapes of the test suite's MINI_DOC config, so the three workloads
finish in well under a minute. Asserts that each run is correct, prints
every metric BENCHMARK.json names, and that the traced call counts equal
the counts the config implies.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MINI_DOC = {
    "seed": 5,
    "dataset": {
        "n_classes": 3, "grid": 4, "d_v": 16, "d_t": 16,
        "rare_count": 1, "rare_n": 5, "common_n": 100, "test_per_class": 10,
    },
    "fixture": {
        "epochs": 12, "batch_scenes": 8, "lr": 2e-3,
        "vlm": {"layers": 2, "heads": 2, "dim": 32, "ffn_hidden": 512,
                "context": 64, "d_v": 16},
    },
    "embeddings": {"dim": 32, "epochs_align": 5, "epochs_joint": 5, "lr": 1e-3},
    "adapter": {"heads": 2, "epochs": 2, "per_class_cap": 6},
    "inference": {"k": 2},
}


@pytest.fixture(scope="module")
def mini_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "mini.json"
    path.write_text(json.dumps(MINI_DOC))
    return path


def run(workload: str, trace: int, config: Path) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--config", str(config)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


# train comes first: at seed 0 it publishes the run directory sweep and serve reopen.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace, mini_config):
    details, result = run(workload, trace, mini_config)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    for key in ("nproc", "cpu_model", "python", "numpy", "blas_vendor", "blas_threads"):
        assert key in details["environment"]
    if trace:
        mismatched = {k: v for k, v in details["call_counts"].items()
                      if v["traced"] != v["config_implied"]}
        assert not mismatched
        assert result["metrics"]["trace.count_mismatches"]["value"] == 0
    else:
        for name in names:
            assert result["metrics"][name]["value"] > 0, name
