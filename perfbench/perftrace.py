"""Span tracing of divseed from outside the package.

`Tracer.iteration_span()` replaces divseed's public functions, at every
module attribute that refers to them, with wrappers that record one span per
call, and restores the originals on exit; no file under src/ changes. Spans are
tuples kept in memory and written out when the benchmark ends. Calls made in
the program's own worker pool are traced too: the pool class the pipeline
module uses is swapped for one that runs each task under the tracer inside
the worker and ships the task's spans and counters back with its result.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import resource
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from divseed import localization, pipeline, sampling, segmentation

# Span tuple fields, in order.
SPAN_FIELDS = ("id", "parent", "name", "tag", "start", "end", "iteration")


def _save_tensor_bytes(counters, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    counters["tensor.bytes_written"] += os.path.getsize(path)


def _load_tensor_bytes(counters, args, kwargs, result):
    counters["tensor.bytes_read"] += result.nbytes


def _localizer_counts(counters, args, kwargs, result):
    counters["localization.classes"] += 1
    counters["localization.restarts"] += result.restarts
    counters["localization.clamp_events"] += result.clamp_events


def _supervision_points(counters, args, kwargs, result):
    counters["sampling.points"] += len(result)


def _greedy_steps(counters, args, kwargs, result):
    counters["sampling.greedy_steps"] += len(result)


def _bg_steps(counters, args, kwargs, result):
    if result and sampling.FLAG_RANDOM_BG in result[0].flags:
        counters["sampling.random_bg_fallbacks"] += 1
    else:
        counters["sampling.greedy_steps"] += len(result)


def _seg_points(counters, args, kwargs, result):
    points = kwargs.get("points", args[0] if args else ())
    counters["segmentation.train_points"] += len(points)


def _strategy_tag(args, kwargs):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    return config.strategy


# (module, attribute, counter hook, tag hook), spans named by span_name().
# A function is replaced at every divseed module attribute bound to it, so
# calls through `from .x import f` names are seen. Methods are replaced on
# their class.
FUNCTIONS = [
    ("divseed.synthdata", "generate_dataset", None, None),
    ("divseed.synthdata", "extract_features", None, None),
    ("divseed.tensor", "save_tensor", _save_tensor_bytes, None),
    ("divseed.tensor", "load_tensor", _load_tensor_bytes, None),
    ("divseed.dataset", "write_dataset", None, None),
    ("divseed.dataset", "Manifest.load_records", None, None),
    ("divseed.localization", "train_localizer", _localizer_counts, None),
    ("divseed.localization", "score_image", None, None),
    ("divseed.sampling", "build_supervision_set", _supervision_points, _strategy_tag),
    ("divseed.sampling", "score_tagged_classes", None, None),
    ("divseed.sampling", "sample_diverse_fg", _greedy_steps, None),
    ("divseed.sampling", "sample_diverse_bg", _bg_steps, None),
    ("divseed.sampling", "sample_top_k", None, None),
    ("divseed.sampling", "sample_spatial", _greedy_steps, None),
    ("divseed.sampling", "dense_pseudo_labels", None, None),
    ("divseed.sampling", "save_points", None, None),
    ("divseed.segmentation", "train_segmentation", _seg_points, None),
    ("divseed.segmentation", "predict", None, None),
    ("divseed.segmentation", "add_class", None, None),
    ("divseed.evaluation", "accumulate", None, None),
    ("divseed.pipeline", "evaluate_images", None, None),
    ("divseed.pipeline", "train_localizers", None, None),
    ("divseed.pipeline", "sample_supervision", None, None),
]

# nn ops are traced only where one caller module binds them, so localizer and
# segmentation-head costs stay apart: (caller module, function, suffix).
NN_OPS = [
    (localization, "linear_fwd", "loc"),
    (localization, "linear_backward", "loc"),
    (localization, "relu_backward", "loc"),
    (localization, "adam_step", "loc"),
    (localization, "global_softmax_prob", "loc"),
    (localization, "pixel_softmax_prob", "loc"),
    (localization, "bce_loss_and_grad", "loc"),
    (segmentation, "linear_fwd", "seg"),
    (segmentation, "linear_backward", "seg"),
    (segmentation, "adam_step", "seg"),
    (segmentation, "masked_ce_loss_and_grad", "seg"),
]

# Strategies reported separately for the calls that depend on them.
STRATEGY_SPANS = ("sampling.build_supervision_set", "segmentation.train_segmentation")

# The tracer that pool workers record into. Workers are forked from the
# process that installed it, so they find it here; it is set only while a
# Tracer is installed.
_active: "Tracer | None" = None


def span_name(qualified: str, attr: str) -> str:
    """`divseed.dataset` + `Manifest.load_records` -> `dataset.load_records`."""
    return f"{qualified.split('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _in_worker(fn, *args):
    """Run one pool task under the worker's copy of the tracer and return
    its spans and counters with the result."""
    tracer = _active
    tracer.spans, tracer.stack, tracer.counters = [], [], defaultdict(float)
    result = fn(*args)
    return result, tracer.spans, dict(tracer.counters)


class TracedPool(ProcessPoolExecutor):
    """The pipeline's process pool, with per-task tracing in the workers,
    the pickled size of every task and the CPU time of the reaped workers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cpu_at_start = _children_cpu()

    def map(self, fn, *iterables, **kwargs):
        tracer = _active
        columns = [list(it) for it in iterables]
        tracer.counters["pipeline.pool.task_bytes"] += sum(
            len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
            for task in zip(*columns)
        )
        parent = tracer.stack[-1] if tracer.stack else None
        results = super().map(functools.partial(_in_worker, fn), *columns, **kwargs)

        def merged():
            for result, spans, counters in results:
                tracer.adopt(spans, counters, parent)
                yield result

        return merged()

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        _active.counters["pipeline.pool.child_cpu_s"] += (
            _children_cpu() - self._cpu_at_start
        )


class Tracer:
    """Spans and counters of the traced iterations of one benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.counters_by_iteration: dict[int, dict[str, float]] = {}
        self.iteration = -1
        self.tag = ""
        self._next_id = 0
        self._saved: list[tuple] = []

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end) -> None:
        self.stack.pop()
        self.spans.append((sid, parent, name, self.tag, start, end, self.iteration))

    def wrap(self, fn, name, hook=None, tag=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tag is not None:
                self.tag = tag(args, kwargs)
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start, time.perf_counter())
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def adopt(self, spans, counters, parent) -> None:
        """Merge a worker task's spans under `parent`, with fresh ids."""
        ids = {}
        for sid, *_ in spans:
            ids[sid] = self._next_id
            self._next_id += 1
        for sid, sparent, name, tag, start, end, _ in spans:
            self.spans.append(
                (ids[sid], ids.get(sparent, parent), name, tag, start, end, self.iteration)
            )
        for key, value in counters.items():
            self.counters[key] += value

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        global _active
        modules = [m for n, m in sys.modules.items() if n.startswith("divseed.")]
        for qualified, attr, hook, tag in FUNCTIONS:
            module = sys.modules[qualified]
            name = span_name(qualified, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self.wrap(getattr(cls, method), name, hook, tag))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, name, hook, tag)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, traced)
        for module, attr, suffix in NN_OPS:
            self._patch(module, attr, self.wrap(getattr(module, attr), f"nn.{attr}.{suffix}"))
        self._patch(pipeline, "ProcessPoolExecutor", TracedPool)
        _active = self

    def uninstall(self) -> None:
        global _active
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        _active = None

    @contextmanager
    def iteration_span(self, iteration: int):
        """Trace one iteration under a root span; every layer span nests in
        it. The program runs unwrapped outside this context."""
        self.iteration = iteration
        self.tag = ""
        self.counters = self.counters_by_iteration.setdefault(iteration, defaultdict(float))
        self.install()
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, "iteration", start, time.perf_counter())
            self.uninstall()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover (children
    from pool workers may overlap each other)."""
    children = defaultdict(list)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, _, _, start, end, _ in spans
    }
