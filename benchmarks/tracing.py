"""In-memory span tracer that wraps rare_lens functions from outside the package.

`Tracer.install()` replaces every module attribute (and class attribute) in
the loaded ``rare_lens`` modules that binds one of the traced functions, so a
name imported directly (``from .vlm import forward``) is wrapped as well as
one reached through its module (``ad.matmul``). `uninstall()` restores them.

A span records name, start, end, parent span and request id (the scene id
of the answer being produced, or the pipeline stage). Hot autodiff ops,
scene reads and encoder calls are kept as per-name call counts and seconds
instead of spans; their time still counts as child time of the enclosing
span, so a span's self time is its duration minus its children's time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, span name)
SPANS = (
    ("harness", "run_pipeline", "harness.run_pipeline"),
    ("harness", "evaluate", "harness.evaluate"),
    ("harness", "ablation_sweep", "harness.ablation_sweep"),
    ("world", "generate_dataset", "world.generate_dataset"),
    ("world", "save_dataset", "world.save_dataset"),
    ("world", "load_dataset", "world.load_dataset"),
    ("vlm", "pretrain_fixture", "vlm.pretrain_fixture"),
    ("vlm", "forward", "vlm.forward"),
    ("vlm", "sequence_nll", "vlm.sequence_nll"),
    ("vlm", "generate", "vlm.generate"),
    ("autodiff", "backward", "autodiff.backward"),
    ("optim", "AdamW.step", "optim.AdamW.step"),
    ("optim", "MonotoneGuard.accept", "optim.MonotoneGuard.accept"),
    ("embeddings", "train_class_embeddings", "embeddings.train_class_embeddings"),
    ("embeddings", "ClassEmbeddingLearner.fit", "embeddings.ClassEmbeddingLearner.fit"),
    ("adapter", "VisualTokenAdapter.fit", "adapter.VisualTokenAdapter.fit"),
    ("adapter", "VisualTokenAdapter.transform", "adapter.VisualTokenAdapter.transform"),
    ("adapter", "adapt", "adapter.adapt"),
    ("hinting", "detect_and_answer", "hinting.detect_and_answer"),
    ("hinting", "score_map", "hinting.score_map"),
    ("ckpt", "save_vlm", "ckpt.save"),
    ("ckpt", "save_classes", "ckpt.save"),
    ("ckpt", "save_adapter", "ckpt.save"),
    ("ckpt", "load_vlm", "ckpt.load"),
    ("ckpt", "load_classes", "ckpt.load"),
    ("ckpt", "load_adapter", "ckpt.load"),
)

# Called too often for one span each: counted and timed per name.
OPS = (
    ("autodiff", "matmul", "autodiff.matmul"),
    ("autodiff", "gelu", "autodiff.gelu"),
    ("autodiff", "multihead_attention", "autodiff.multihead_attention"),
    ("autodiff", "rmsnorm_rows", "autodiff.rmsnorm_rows"),
    ("autodiff", "log_softmax_rows", "autodiff.log_softmax_rows"),
    ("world", "read_scene", "world.read_scene"),
    ("world", "VisionEncoder.encode", "world.VisionEncoder.encode"),
)

STAGES = ("dataset", "vlm", "classes", "adapter", "eval")

# Inside run_pipeline, entering the first call of a stage starts that stage;
# run_pipeline itself starts "dataset". The stage clocks partition its span.
STAGE_ENTRY = {
    "vlm.pretrain_fixture": "vlm",
    "embeddings.train_class_embeddings": "classes",
    "adapter.VisualTokenAdapter.fit": "adapter",
    "harness.evaluate": "eval",
}

NAME, START, END, PARENT, REQUEST, CHILD_S, TAPED = range(7)


def _digest(array) -> bytes:
    return hashlib.blake2b(array.tobytes(), digest_size=16).digest()


def _resolve(owner, path: str):
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    def __init__(self):
        # [name, start, end, parent, request, child seconds, under a GradTape]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ops = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.request = None
        self.tape_depth = 0
        # Gathered by hooks after each call returns, outside its span.
        self.counts = defaultdict(float)
        self.grids = {"hinting.score_map": set(), "world.VisionEncoder.encode": set()}
        self.pipelines: list[tuple[list, float, bool]] = []  # (stage marks, end, resumed)
        self._marks: list[tuple[str, float]] = []
        self._seen_rows: set = set()  # decode-row prefix keys of finished generate calls
        self._request_rows: list[set] = []  # one set per open generate call
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------------

    def install(self) -> None:
        from rare_lens import autodiff

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rare_lens" or name.startswith("rare_lens."))]
        for entry in SPANS + OPS:
            mod_name, path, name = entry
            owner, attr = _resolve(sys.modules[f"rare_lens.{mod_name}"], path)
            original = owner.__dict__[attr]
            wrapped = (self._span if entry in SPANS else self._op)(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

        tape = autodiff.GradTape
        enter, exit_ = tape.__enter__, tape.__exit__

        def tape_enter(tape_self):
            self.tape_depth += 1
            return enter(tape_self)

        def tape_exit(tape_self, *exc):
            self.tape_depth -= 1
            return exit_(tape_self, *exc)

        self._patch(tape, "__enter__", tape_enter)
        self._patch(tape, "__exit__", tape_exit)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _span(self, name, fn):
        tracer, spans, stack = self, self.spans, self.stack
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            saved = tracer.request
            if before is not None:
                before(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, 0.0,
                   tracer.tape_depth > 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()
                if stack:
                    spans[stack[-1]][CHILD_S] += rec[END] - rec[START]
                tracer.request = saved
            if after is not None:
                after(rec, args, result)
            return result

        return wrapped

    def _op(self, name, fn):
        spans, stack = self.spans, self.stack
        stat = self.ops[name]
        grids = self.grids.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stat[0] += 1
                stat[1] += elapsed
                if stack:
                    spans[stack[-1]][CHILD_S] += elapsed
                if grids is not None:
                    grids.add(_digest(args[1]))

        return wrapped

    # -- hooks, named after the span they serve ----------------------------------

    def _before_harness_run_pipeline(self, args):
        self.request = "dataset"
        self._marks = [("dataset", time.perf_counter())]

    def _after_harness_run_pipeline(self, rec, args, result):
        report = result[1]
        resumed = report is not None and not report["stages_run"]
        self.pipelines.append((self._marks, rec[END], resumed))

    def _enter_stage(self, name):
        if not any(self.spans[i][NAME] == "harness.run_pipeline" for i in self.stack):
            return
        stage = STAGE_ENTRY[name]
        if self._marks[-1][0] != stage:
            self._marks.append((stage, time.perf_counter()))
        self.request = stage

    def _before_vlm_pretrain_fixture(self, args):
        self._enter_stage("vlm.pretrain_fixture")

    def _before_embeddings_train_class_embeddings(self, args):
        self._enter_stage("embeddings.train_class_embeddings")

    def _before_adapter_VisualTokenAdapter_fit(self, args):
        self._enter_stage("adapter.VisualTokenAdapter.fit")

    def _before_harness_evaluate(self, args):
        self._enter_stage("harness.evaluate")

    def _before_hinting_detect_and_answer(self, args):
        self.request = args[0].scene_id

    def _after_hinting_score_map(self, rec, args, result):
        self.grids["hinting.score_map"].add(_digest(args[0]))

    def _before_vlm_generate(self, args):
        self._request_rows.append(set())

    def _after_vlm_generate(self, rec, args, result):
        self.counts["vlm.generate.tokens"] += len(result)
        self._seen_rows |= self._request_rows.pop()

    def _after_vlm_forward(self, rec, args, result):
        vlm, visual, seq = args[:3]
        n = len(seq.ids)
        self.counts["vlm.forward.rows"] += n
        if not self.stack or self.spans[self.stack[-1]][NAME] != "vlm.generate":
            return
        # Row i's causal prefix is the visual block plus ids[m:i+1] under one
        # model. The visual rows count as one block keyed by their contents.
        m = seq.n_visual
        head = (id(vlm), _digest(visual.array) if visual is not None else b"")
        text = seq.ids[m:]
        keys = [((head, m), m)] + [((head, tuple(text[: i + 1])), 1) for i in range(len(text))]
        current = self._request_rows[-1]
        for key, rows in keys:
            if key in current:
                self.counts["vlm.forward.decode_rows_reused_in_request"] += rows
            elif key in self._seen_rows:
                self.counts["vlm.forward.decode_rows_reused_across_requests"] += rows
            current.add(key)
        self.counts["vlm.forward.decode_rows"] += n

    def _after_autodiff_backward(self, rec, args, result):
        self.counts["autodiff.backward.tape_entries"] += len(args[1].entries)

    def _after_optim_MonotoneGuard_accept(self, rec, args, result):
        self.counts["optim.MonotoneGuard.accepted"] += bool(result)

    def _after_world_save_dataset(self, rec, args, result):
        root = Path(args[1])
        self.counts["world.save_dataset.bytes"] += sum(
            p.stat().st_size for p in root.rglob("*") if p.is_file())

    def _after_ckpt_save(self, rec, args, result):
        self.counts["ckpt.save.bytes"] += Path(args[0]).stat().st_size

    def _after_ckpt_load(self, rec, args, result):
        self.counts["ckpt.load.bytes"] += Path(args[0]).stat().st_size

    # -- reports -----------------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, seconds, self seconds) over every span with this name."""
        calls, total, own = 0, 0.0, 0.0
        for rec in self.spans:
            if rec[NAME] == name:
                calls += 1
                total += rec[END] - rec[START]
                own += rec[END] - rec[START] - rec[CHILD_S]
        return calls, total, own

    def stage_seconds(self) -> dict[str, float]:
        """Wall time per stage, summed over every run_pipeline that ran stages."""
        out = dict.fromkeys(STAGES, 0.0)
        for marks, end, resumed in self.pipelines:
            if resumed:
                continue
            for (stage, t0), (_, t1) in zip(marks, marks[1:] + [("end", end)]):
                out[stage] += t1 - t0
        return out

    def resume_seconds(self) -> float:
        return sum(end - marks[0][1] for marks, end, resumed in self.pipelines if resumed)

    def count_under(self, name: str, ancestor: str, taped: bool | None = None) -> int:
        """Spans called `name` that have `ancestor` on their parent chain."""
        n = 0
        for rec in self.spans:
            if rec[NAME] != name or (taped is not None and rec[TAPED] != taped):
                continue
            parent = rec[PARENT]
            while parent >= 0:
                if self.spans[parent][NAME] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][PARENT]
        return n

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "request": rec[REQUEST],
                    "self_s": rec[END] - rec[START] - rec[CHILD_S],
                }) + "\n")
            for name, (calls, seconds) in sorted(self.ops.items()):
                fh.write(json.dumps({"op": name, "calls": calls, "s": seconds}) + "\n")
