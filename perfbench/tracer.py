"""Span tracing of an auxlab process, installed from outside the program.

`Tracer.install` replaces each public function named in SPANNED with a
timing wrapper at every attribute through which auxlab code resolves it: the
defining module and each module that imported the name. A span is
(id, name, start, end, parent, thread, value); the parent is the innermost
open span of the same thread, and `value` is a per-function quantity such as
the rows an evaluation scored. `nn.param_layout` and
`RngStream.generator` are cheap and called several times per gradient, so
they are only counted. Spans stay in memory until `write` dumps them as JSON
at the end of the process.

`summarize` turns the span files of one traced round into the per-layer
metrics; a span's self time is its duration less that of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

SPANNED = {
    "nn": ("loss_and_gradient", "evaluate"),
    "optim": ("sgd_step", "weighted_gradient"),
    "vectors": ("linear_combination",),
    "tasks": ("load_family", "write_family"),
    "forkmerge": ("draw_batch", "train_branch", "search_lambda_grid",
                  "search_lambda_binary", "greedy_search_lambda", "run_forkmerge"),
    "metrics": ("gcs", "one_step_tg_gcs_sweep"),
    "baselines": ("instantaneous_gcs_weights", "run_single_task", "run_ew",
                  "run_fixed_lambda", "run_gcs_weighting", "run_post_train"),
    "runner": ("run_experiment", "run_csd_lambda_sweep", "read_records", "aggregate",
               "write_summary"),
}

SEARCHES = ("forkmerge.search_lambda_grid", "forkmerge.search_lambda_binary",
            "forkmerge.greedy_search_lambda")
REPORT = ("runner.read_records", "runner.aggregate", "runner.write_summary")


# A span's value, read from the call's arguments (by parameter name) and result.
VALUES = {
    "nn.evaluate": lambda args, result: len(args["split"].inputs),
    "forkmerge.train_branch": lambda args, result: args["opt"].step_count,
    "runner.run_experiment": lambda args, result: len(result),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "auxlab" or name.startswith("auxlab.")}
        for short, names in SPANNED.items():
            for attr in names:
                fn = getattr(modules[f"auxlab.{short}"], attr)
                self._rebind(modules, fn, self._span(f"{short}.{attr}", fn))
        # called several times per gradient, so counted rather than spanned
        layout = modules["auxlab.nn"].param_layout
        self._rebind(modules, layout, self._count("nn.param_layout", layout))
        rng = modules["auxlab.vectors"].RngStream
        rng.generator = self._count("vectors.RngStream.generator", rng.generator)

    @staticmethod
    def _rebind(modules, fn, wrapper) -> None:
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)

    def _count(self, name: str, fn):
        counts, lock = self.counts, self._lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name: str, fn):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        value_of = VALUES.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, name, t0, clock(), parent, threading.get_ident(), None))
                raise
            t1 = clock()
            stack.pop()
            value = (value_of(sig.bind(*args, **kwargs).arguments, result)
                     if value_of else None)
            spans.append((sid, name, t0, t1, parent, threading.get_ident(), value))
            return result
        return spanned

    def write(self, path: Path, import_s: float) -> None:
        payload = {"import_s": import_s, "counts": dict(self.counts), "spans": self.spans}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def summarize(span_files: list[Path]) -> dict[str, float]:
    """Per-layer metrics of the processes whose span files are given."""
    self_s, wall_s = defaultdict(float), defaultdict(float)
    calls, counts, values = defaultdict(int), defaultdict(int), defaultdict(int)
    import_s = []
    search_evals = 0
    phases: dict[tuple, list] = defaultdict(list)
    for path in span_files:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        import_s.append(payload["import_s"])
        for name, n in payload["counts"].items():
            counts[name] += n
        spans = {s[0]: s for s in payload["spans"]}
        child_s: dict[int, float] = defaultdict(float)
        for sid, name, t0, t1, parent, _, value in spans.values():
            child_s[parent] += t1 - t0
        forks = [s for s in spans.values() if s[1] == "forkmerge.run_forkmerge"]
        for sid, name, t0, t1, parent, _, value in spans.values():
            calls[name] += 1
            wall_s[name] += t1 - t0
            self_s[name] += t1 - t0 - child_s[sid]
            if value is not None:
                values[name] += value
            if name == "nn.evaluate":
                up = parent
                while up != -1 and spans[up][1] not in SEARCHES:
                    up = spans[up][4]
                search_evals += up != -1
            elif name == "forkmerge.train_branch":
                # a round's branches start from the same step; worker threads
                # have no parent span, so find the fork/merge run by time
                fork = next((f for f in forks if f[2] <= t0 and t1 <= f[3]), None)
                if fork is not None:
                    phases[(str(path), fork[0], value)].append((t0, t1))
    return {
        "nn.loss_and_gradient.calls": calls["nn.loss_and_gradient"],
        "nn.loss_and_gradient.self_s": self_s["nn.loss_and_gradient"],
        "nn.loss_and_gradient.us_per_call": (
            1e6 * self_s["nn.loss_and_gradient"] / max(calls["nn.loss_and_gradient"], 1)),
        "nn.param_layout.calls": counts["nn.param_layout"],
        "optim.sgd_step.calls": calls["optim.sgd_step"],
        "optim.sgd_step.self_s": self_s["optim.sgd_step"],
        "optim.weighted_gradient.self_s": self_s["optim.weighted_gradient"],
        "forkmerge.draw_batch.calls": calls["forkmerge.draw_batch"],
        "forkmerge.draw_batch.self_s": self_s["forkmerge.draw_batch"],
        "vectors.rng_generators": counts["vectors.RngStream.generator"],
        "nn.evaluate.calls": calls["nn.evaluate"],
        "nn.evaluate.rows": values["nn.evaluate"],
        "nn.evaluate.self_s": self_s["nn.evaluate"],
        "vectors.linear_combination.calls": calls["vectors.linear_combination"],
        "vectors.linear_combination.self_s": self_s["vectors.linear_combination"],
        "forkmerge.search_phase_s": sum(wall_s[n] for n in SEARCHES),
        "forkmerge.search.evals": search_evals,
        "forkmerge.train_phase_s": sum(max(e for _, e in spans) - min(s for s, _ in spans)
                                       for spans in phases.values()),
        "forkmerge.branch_busy_s": sum(e - s for spans in phases.values() for s, e in spans),
        "forkmerge.train_branch.self_s": self_s["forkmerge.train_branch"],
        "forkmerge.rounds": len(phases),
        "tasks.load_family.calls": calls["tasks.load_family"],
        "tasks.load_family.wall_s": wall_s["tasks.load_family"],
        "tasks.write_family.wall_s": wall_s["tasks.write_family"],
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "baselines.instantaneous_gcs_weights.self_s": self_s["baselines.instantaneous_gcs_weights"],
        "metrics.gcs.calls": calls["metrics.gcs"],
        "metrics.one_step_tg_gcs_sweep.wall_s": wall_s["metrics.one_step_tg_gcs_sweep"],
        "runner.run_csd_lambda_sweep.self_s": self_s["runner.run_csd_lambda_sweep"],
        "runner.run_experiment.self_s": self_s["runner.run_experiment"],
        "runner.records_written": values["runner.run_experiment"],
        "runner.report_s": sum(wall_s[n] for n in REPORT),
    }
