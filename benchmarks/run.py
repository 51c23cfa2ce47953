"""rare-lens benchmark: train, sweep and serve workloads, untraced or traced.

    python3 benchmarks/run.py --workload {train,sweep,serve} --seed N \\
        --seconds S --trace {0,1} [--config FILE]

Run it from the repository root; it imports the package from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
records the environment, the checks and the cold build time. Everything the
benchmark writes goes under ``benchmarks/.state``. See README.md.
"""

from __future__ import annotations

import os

# One process, one BLAS thread; this must happen before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = BENCH / ".state"

WORKLOADS = ("train", "sweep", "serve")
SETUP_REPEATS = 4  # before the workload, and again after it

# The bench config: the default ExperimentConfig with a smaller dataset, so
# that one from-scratch pipeline fits the benchmark's time budget. Model
# shapes (dim 64, 4 layers, 4 heads, FFN 512, 25 visual tokens) and every
# schedule stay at their defaults; see README.md.
BENCH_CONFIG = {
    "dataset": {"n_classes": 6, "rare_count": 4, "common_n": 100, "test_per_class": 40},
}
# `sweep` and `serve` reopen the one run directory trained at this seed, so a
# checkout trains it once rather than once per workload seed. Their workload
# seed orders the requests (`serve`); `train` trains at the workload seed.
TRAINED_SEED = 0


# ---------------------------------------------------------------------------
# configuration, environment, trained-directory cache
# ---------------------------------------------------------------------------


def load_bench_config(path: Path | None, seed: int):
    from rare_lens.config import config_from_dict

    doc = json.loads(path.read_text()) if path else BENCH_CONFIG
    return replace(config_from_dict(doc), seed=seed)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
    }


def cache_key(cfg) -> str:
    """Digest of everything a trained run directory depends on."""
    from rare_lens.config import config_to_dict

    h = hashlib.blake2b(digest_size=10)
    for path in sorted((SRC / "rare_lens").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    env = environment()
    h.update(json.dumps({
        "config": config_to_dict(cfg),
        "numpy": env["numpy"], "blas": [env["blas_vendor"], env["blas_version"]],
        "threads": BLAS_THREADS,
    }, sort_keys=True).encode())
    return h.hexdigest()


def trained_dir(cfg) -> Path:
    return STATE / "trained" / cache_key(cfg)


def store_trained(cfg, run_dir: Path) -> None:
    """Publish a finished run directory under its cache key, atomically."""
    final = trained_dir(cfg)
    final.parent.mkdir(parents=True, exist_ok=True)
    try:
        os.replace(run_dir, final)
    except OSError:  # another run published it first
        shutil.rmtree(run_dir)


def fresh_dir(tag: str) -> Path:
    path = STATE / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def self_command(args, *extra) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", *extra]
    if args.config:
        cmd += ["--config", str(args.config)]
    return cmd


def ensure_trained(args, cfg) -> float:
    """Build the trained directory in a child process if absent; its wall time."""
    if trained_dir(cfg).exists():
        return 0.0
    start = time.perf_counter()
    subprocess.run(self_command(args, "--build-only"), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def build_trained(cfg) -> None:
    from rare_lens.harness import run_pipeline

    run_dir = fresh_dir("build")
    run_pipeline(cfg, run_dir)
    store_trained(cfg, run_dir)


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that only set up, each from process start."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(self_command(args, "--setup-only"), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def setup_only(workload: str, cfg) -> None:
    if workload == "train":
        shutil.rmtree(fresh_dir("setup"))
    else:
        reopen(cfg)


def reopen(cfg):
    """Resume the trained directory, as a user reopening a finished run does."""
    from rare_lens.harness import run_pipeline

    return run_pipeline(cfg, trained_dir(cfg))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@contextmanager
def answer_clock(latencies: list):
    """Time each answer the harness produces (evaluate calls it per scene)."""
    from rare_lens import harness

    inner = harness.detect_and_answer

    def timed(*a, **kw):
        start = time.perf_counter()
        out = inner(*a, **kw)
        latencies.append(time.perf_counter() - start)
        return out

    harness.detect_and_answer = timed
    try:
        yield
    finally:
        harness.detect_and_answer = inner


@contextmanager
def step_clock(latencies: list):
    """Time each fixture training step as the interval since the previous one.

    An interval holds one batch's forward, backward and AdamW update, plus
    the guard pass at an epoch's end. The fixture's steps span the `vlm`
    stage, the pipeline's longest, so their median samples the machine over
    tens of seconds; the eval answers span only its last few.
    """
    from rare_lens import harness
    from rare_lens.optim import AdamW

    inner_step, inner_fixture = AdamW.__dict__["step"], harness.pretrain_fixture
    marks: list[float] = []

    def step(self, *args, **kwargs):
        out = inner_step(self, *args, **kwargs)
        marks.append(time.perf_counter())
        return out

    def fixture(*args, **kwargs):
        AdamW.step = step
        try:
            return inner_fixture(*args, **kwargs)
        finally:
            AdamW.step = inner_step
            latencies.extend(b - a for a, b in zip(marks, marks[1:]))
            marks.clear()

    harness.pretrain_fixture = fixture
    try:
        yield
    finally:
        harness.pretrain_fixture = inner_fixture


def same_row(live, stored: dict) -> bool:
    return json.loads(json.dumps(live.to_dict(), sort_keys=True)) == stored


def run_meta(run_dir: Path) -> dict:
    return json.loads((run_dir / "run_meta.json").read_text())


def train_unit(cfg) -> dict:
    """One pipeline from an empty directory through eval. Ops are stages."""
    from rare_lens.errors import RareLensError
    from rare_lens.harness import STAGES, EvalReport, run_pipeline

    run_dir = fresh_dir("train")
    latencies: list[float] = []  # fixture training steps
    start = time.perf_counter()
    try:
        with step_clock(latencies):
            _, report = run_pipeline(cfg, run_dir)
    except RareLensError as exc:
        done = run_meta(run_dir)["stages"] if (run_dir / "run_meta.json").exists() else {}
        shutil.rmtree(run_dir)
        return {"work_s": time.perf_counter() - start, "latencies": latencies,
                "attempted": len(STAGES), "failed": len(STAGES) - len(done),
                "checks": {"pipeline": f"{type(exc).__name__}: {exc}"}}
    work_s = time.perf_counter() - start

    stages = run_meta(run_dir)["stages"]
    fixture, classes = cfg.fixture, cfg.embeddings
    gate = stages["vlm"]["gate"]
    checks = {
        "dataset": report["stages_run"] == list(STAGES),
        "vlm": gate["common_accuracy"] >= fixture.gate_common
        and gate["rare_accuracy"] <= fixture.gate_rare,
        "classes": stages["classes"]["accuracy"] >= classes.gate_accuracy
        and stages["classes"]["rare_recall"] >= classes.gate_rare_recall,
        "adapter": (run_dir / "adapter.ckpt").exists(),
        "eval": report["params"]["plugin_ratio"] < 0.10,
    }
    for mode, row in report["modes"].items():
        rep = EvalReport(**{
            **row,
            "per_class_accuracy": {int(c): v for c, v in row["per_class_accuracy"].items()},
            "per_class_counts": {int(c): v for c, v in row["per_class_counts"].items()},
        })
        checks["eval"] = checks["eval"] and abs(
            rep.recomputed_aggregate() - rep.aggregate_accuracy) <= 1e-12
    full, base = report["modes"]["full"], report["modes"]["baseline"]
    quality = {
        "rare_acc_full": full["rare_accuracy"],
        "rare_gain_full": full["rare_accuracy"] - base["rare_accuracy"],
        "detect_top3_acc": full["detection_accuracy"],
        "fixture_loss": stages["vlm"]["epoch_losses"][-1],
    }
    if cfg.seed == TRAINED_SEED:
        store_trained(cfg, run_dir)
    else:
        shutil.rmtree(run_dir)
    return {"work_s": work_s, "latencies": latencies, "quality": quality,
            "attempted": len(STAGES), "failed": sum(not ok for ok in checks.values()),
            "checks": checks}


def sweep_unit(cfg, arts, report) -> dict:
    """ablation_sweep at the configured k over the test split. Ops are answers."""
    from rare_lens.harness import ablation_sweep

    latencies: list[float] = []
    start = time.perf_counter()
    with answer_clock(latencies):
        result = ablation_sweep(arts, k=cfg.inference.k, max_len=cfg.inference.max_answer_len)
    work_s = time.perf_counter() - start
    arms = result["arms"]
    reports = list(arms.values()) + result["ksweep"]
    checks = {mode: same_row(arms[mode], report["modes"][mode]) for mode in ("baseline", "full")}
    failed = sum(arms[mode].n_scenes for mode, ok in checks.items() if not ok)
    full, base = arms["full"], arms["baseline"]
    quality = {
        "rare_acc_full": full.rare_accuracy,
        "rare_gain_full": full.rare_accuracy - base.rare_accuracy,
        "detect_top3_acc": full.detection_accuracy,
    }
    return {"work_s": work_s, "latencies": latencies, "quality": quality,
            "attempted": sum(r.n_scenes for r in reports), "failed": failed, "checks": checks}


def serve_requests(arts, seed: int) -> list:
    import numpy as np

    scenes = sorted(arts.world.scenes("test"), key=lambda s: s.scene_id)
    order = np.random.default_rng(np.random.SeedSequence([seed, 5150])).permutation(len(scenes))
    return [scenes[i] for i in order]


def serve_unit(cfg, arts, report, seed: int, seconds: float) -> dict:
    """One closed-loop client; each test scene is requested once, in seeded order.

    Request i is sent when request i-1 has completed and no earlier than
    i * seconds / n after the start, so the pass spans `seconds` and its
    latencies sample the machine over that whole interval. The client spins
    rather than sleeps: an idle CPU's wake-up delay belongs to the host.
    """
    from rare_lens.errors import RareLensError
    from rare_lens.hinting import detect_and_answer

    latencies, outputs, failed = [], {}, 0
    requests = serve_requests(arts, seed)
    interval = seconds / len(requests)
    start = time.perf_counter()
    for i, meta in enumerate(requests):
        while time.perf_counter() < start + i * interval:
            pass
        t0 = time.perf_counter()
        try:
            out = detect_and_answer(
                meta, arts.world.grid(meta.scene_id), arts.encoder, arts.learner,
                arts.adapter, arts.vlm, arts.tokenizer, k=cfg.inference.k, mode="full",
                max_len=cfg.inference.max_answer_len,
            )
        except RareLensError:
            failed += 1
            continue
        latencies.append(time.perf_counter() - t0)
        outputs[meta] = out
    # Busy time: the pacing gaps are the client's, not the server's.
    work_s = sum(latencies)
    return {"work_s": work_s, "latencies": latencies, "outputs": outputs,
            "attempted": len(outputs) + failed, "failed": failed}


def check_serve(cfg, arts, report, unit: dict) -> None:
    """Served accuracy must equal evaluate() on the same scenes."""
    from rare_lens.harness import evaluate

    m = arts.world.manifest
    hits: dict[int, list[bool]] = {c: [] for c in range(m.n_classes)}
    detected = []
    for meta, out in unit["outputs"].items():
        hits[meta.class_id].append(out.correct)
        detected.append(meta.class_id in out.detection.class_ids)
    per_class = {c: sum(h) / len(h) if h else 0.0 for c, h in hits.items()}
    ref = evaluate(arts, "full", cfg.inference.k, cfg.inference.max_answer_len)
    served = len(detected)
    ok = (served == ref.n_scenes and per_class == ref.per_class_accuracy
          and sum(detected) / served == ref.detection_accuracy)
    unit["checks"] = {"accuracy_matches_evaluate": ok}
    if not ok:
        unit["failed"] = unit["attempted"]
    full_rare = sum(per_class[c] for c in m.rare_ids) / len(m.rare_ids)
    unit["quality"] = {
        "rare_acc_full": full_rare,
        "rare_gain_full": full_rare - report["modes"]["baseline"]["rare_accuracy"],
        "detect_top3_acc": sum(detected) / served,
    }


def run_workload(workload: str, cfg, seed: int, seconds: float) -> dict:
    """Set up, then run whole units within `seconds` (serve: one pass).

    A run does at least one unit, and starts another only if a unit as long
    as the last one would still end within `seconds`.
    """
    units = []
    opened = None
    if workload != "train":
        arts, report = opened = reopen(cfg)
        resumed_clean = report["stages_run"] == []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        if workload == "train":
            units.append(train_unit(cfg))
        elif workload == "sweep":
            units.append(sweep_unit(cfg, arts, report))
        else:
            units.append(serve_unit(cfg, arts, report, seed, seconds))
        now = time.perf_counter()
        if workload == "serve" or 2 * now - unit_start - start > seconds:
            break
    out = {"units": units, "opened": opened}
    if workload != "train":
        out["resumed_clean"] = resumed_clean
    return out


def finish(workload: str, cfg, run: dict) -> dict:
    """Checks that need no timing, then a summary of the units."""
    units = run["units"]
    if workload == "serve":
        arts, report = run["opened"]
        check_serve(cfg, arts, report, units[0])
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    checks = [u.get("checks", {}) for u in units]
    if workload != "train":
        attempted += 1  # the resume of the trained directory
        failed += not run["resumed_clean"]
        checks.append({"resume_reran_nothing": run["resumed_clean"]})
        meta = run_meta(trained_dir(cfg))
        for u in units:
            u.setdefault("quality", {})["fixture_loss"] = meta["stages"]["vlm"]["epoch_losses"][-1]
    latencies = [t for u in units for t in u["latencies"]]
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "latencies": latencies, "work_s": [u["work_s"] for u in units],
            "quality": units[-1].get("quality", {})}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(summary: dict, setup_times: list[float]) -> dict:
    # A failed pipeline may time no steps; the run is then incorrect.
    lat = summary["latencies"] or [0.0]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_s": (statistics.median(summary["work_s"]), "s"),
        "rate_per_s": (len(lat) / sum(lat) if sum(lat) else 0.0, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * percentile(lat, 0.90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def per_layer(workload: str, cfg, tracer, summary: dict, untraced_s: float,
              traced_s: float) -> tuple[dict, dict]:
    from layers import expected_counts, layer_metrics

    metrics = layer_metrics(tracer)
    expected = expected_counts(workload, cfg, tracer, len(summary["work_s"]))
    mismatches = {k: v for k, v in expected.items() if v[0] != v[1]}
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    metrics["trace.count_mismatches"] = (len(mismatches), "count")
    return ({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            {k: {"traced": v[0], "config_implied": v[1]} for k, v in expected.items()})


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config replacing the bench config (smoke tests)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--build-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rare_lens" / "__init__.py").is_file():
        print(f"benchmark: no rare_lens package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    cfg = load_bench_config(args.config, args.seed if args.workload == "train" else TRAINED_SEED)
    if args.setup_only:
        setup_only(args.workload, cfg)
        return 0
    if args.build_only:
        build_trained(cfg)
        return 0

    cold_build_s = ensure_trained(args, cfg) if args.workload != "train" else 0.0
    # Set-up samples on both sides of the workload meet the machine at two
    # different speeds; their median is steadier than a burst of samples.
    setup_times = measure_setup(args)
    run = run_workload(args.workload, cfg, args.seed, args.seconds)
    summary = finish(args.workload, cfg, run)
    setup_times += measure_setup(args)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "cold_build_s": cold_build_s, "setup_s_samples": setup_times,
        "work_s_samples": summary["work_s"], "timed_calls": len(summary["latencies"]),
        "latency_ms": {f"p{q}": 1e3 * percentile(summary["latencies"], q / 100)
                       for q in (50, 90, 95, 99)} if summary["latencies"] else {},
        "quality": summary["quality"], "checks": summary["checks"],
    }
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_workload(args.workload, cfg, args.seed, args.seconds)
        finally:
            tracer.uninstall()
        traced_summary = finish(args.workload, cfg, traced)
        untraced_s = sum(summary["work_s"]) / len(summary["work_s"])
        traced_s = sum(traced_summary["work_s"]) / len(traced_summary["work_s"])
        metrics, counts = per_layer(args.workload, cfg, tracer, traced_summary,
                                    untraced_s, traced_s)
        trace_file = STATE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        details.update(trace_file=str(trace_file.relative_to(ROOT)), call_counts=counts)
        summary["attempted"] += traced_summary["attempted"]
        summary["failed"] += traced_summary["failed"]
    else:
        metrics = end_to_end(summary, setup_times)
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    out_dir = STATE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"details": details, "result": result}, indent=1))
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
