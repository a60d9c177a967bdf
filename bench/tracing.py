"""Spans around the public functions of every aespace layer, kept in memory.

The wrappers are installed from the benchmark by replacing module and class
attributes for the length of one traced job, then the originals are put back;
nothing under ``src/`` changes. The CLI and the library look these names up
at call time (``encoder.forward(...)``, ``samp.collect_indices(...)``), so a
replaced attribute sees every call the job makes.

A span is ``[name, start, end, parent, child_s]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``child_s`` the time its direct
children cover. The program is single-threaded, so children never overlap and
a span's self time is ``end - start - child_s``. No layer waits on a queue, so
no wait time is recorded.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from aespace import data_model, encoder, ranker, sampler, synth, trainer, video


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.samplers: dict[int, sampler.TripletSampler] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def dump(self) -> list[dict]:
        """Spans as records with times relative to the first span's start."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [
            {"id": i, "name": name, "start": start - t0, "end": end - t0, "parent": parent}
            for i, (name, start, end, parent, _) in enumerate(self.spans)
        ]


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


def _weights_per_row(params) -> int:
    dims = params.layer_dims
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def _count_forward(t, args, out):
    rows = _rows(args[1])
    t.add("encoder.forward.rows", rows)
    t.add("encoder.flops", 2 * rows * _weights_per_row(args[0]))


def _count_backward(t, args, out):
    # weight gradient plus input gradient per layer; the forward pass that
    # backward repeats internally is not counted, since it is not needed work
    rows = _rows(args[1])
    t.add("encoder.backward.rows", rows)
    t.add("encoder.flops", 4 * rows * _weights_per_row(args[0]))


def _count_train(t, args, out):
    windows = out[1].windows
    t.add("trainer.steps", windows[-1].step if windows else 0)


def _count_pairs(t, args, out):
    n = len(args[0])
    t.add("ranker.pairwise_agreement.pairs", n * (n - 1) // 2)


def _keep_sampler(t, args, out):
    # held until the job ends so that each id names one sampler
    t.samplers.setdefault(id(args[0]), args[0])


# (owner, attribute, span name, hook called with (tracer, args, result))
TARGETS = [
    (data_model, "load_dataset", "data_model.load_dataset",
     lambda t, args, out: t.add("data_model.load_dataset.records", len(out))),
    (data_model, "save_dataset", "data_model.save_dataset", None),
    (data_model.Dataset, "scores", "data_model.Dataset.scores", None),
    (synth, "generate", "synth.generate", None),
    (sampler.TripletSampler, "collect_indices", "sampler.collect_indices", _keep_sampler),
    (encoder, "forward", "encoder.forward", _count_forward),
    (encoder, "backward", "encoder.backward", _count_backward),
    (encoder, "load", "encoder.load", None),
    (encoder, "save", "encoder.save", None),
    (trainer, "train", "trainer.train", _count_train),
    (ranker, "rank_collection", "ranker.rank_collection", None),
    (ranker, "pairwise_agreement", "ranker.pairwise_agreement", _count_pairs),
    (ranker, "kendall_tau", "ranker.kendall_tau", None),
    (video, "load_frames", "video.load_frames", None),
    (video, "score_sequence", "video.score_sequence", None),
    (video, "kalman_smooth", "video.kalman_smooth", None),
    (video, "detect_peaks", "video.detect_peaks",
     lambda t, args, out: t.add("video.peaks", len(out))),
    (video, "peak_prominences", "video.peak_prominences",
     lambda t, args, out: t.add("video.candidates", len(args[1]))),
]

CLI_COMMANDS = ("synth", "score", "sample", "train", "embed", "rank", "eval", "video")
JOB_SPAN = "bench.job"


def _wrap(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, args, out)
        return out

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every call to a traced function through ``tracer`` while open."""
    saved = []
    try:
        for owner, attr, name, hook in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# per-layer metric -> (unit, how it is read from one job's spans and counts)
def _layer_table():
    table = {}

    def time_of(metric, span, kind="s"):
        table[metric] = ("s", lambda agg: agg[kind].get(span, 0.0))

    def calls_of(metric, span):
        table[metric] = ("count", lambda agg: agg["calls"].get(span, 0))

    def count(metric, unit="count"):
        table[metric] = (unit, lambda agg: agg["counts"].get(metric, 0))

    time_of("data_model.load_dataset.s", "data_model.load_dataset")
    calls_of("data_model.load_dataset.calls", "data_model.load_dataset")
    count("data_model.load_dataset.records")
    time_of("data_model.save_dataset.s", "data_model.save_dataset")
    time_of("data_model.Dataset.scores.s", "data_model.Dataset.scores")
    time_of("synth.generate.s", "synth.generate")
    time_of("sampler.collect_indices.s", "sampler.collect_indices")
    calls_of("sampler.collect_indices.calls", "sampler.collect_indices")
    count("sampler.proposed")
    count("sampler.accepted")
    count("sampler.acceptance_rate", "ratio")
    for fn in ("forward", "backward"):
        time_of(f"encoder.{fn}.s", f"encoder.{fn}")
        calls_of(f"encoder.{fn}.calls", f"encoder.{fn}")
        count(f"encoder.{fn}.rows")
    time_of("encoder.load.s", "encoder.load")
    time_of("encoder.save.s", "encoder.save")
    count("encoder.flops", "flop_computed")
    time_of("trainer.train.s", "trainer.train")
    count("trainer.steps")
    count("trainer.us_per_step", "us")
    time_of("trainer.self_s", "trainer.train", "self")
    time_of("ranker.rank_collection.s", "ranker.rank_collection")
    time_of("ranker.pairwise_agreement.s", "ranker.pairwise_agreement")
    count("ranker.pairwise_agreement.pairs")
    time_of("ranker.kendall_tau.s", "ranker.kendall_tau")
    time_of("video.load_frames.s", "video.load_frames")
    time_of("video.score_sequence.s", "video.score_sequence")
    time_of("video.kalman_smooth.s", "video.kalman_smooth")
    time_of("video.detect_peaks.s", "video.detect_peaks", "self")
    time_of("video.peak_prominences.s", "video.peak_prominences")
    count("video.candidates")
    count("video.peaks")
    for command in CLI_COMMANDS:
        time_of(f"cli.{command}.self_s", f"cli.{command}", "self")
    time_of("trace.coverage_gap_s", JOB_SPAN, "self")
    table["trace.coverage_gap_frac"] = (
        "fraction", lambda agg: agg["self"][JOB_SPAN] / agg["s"][JOB_SPAN])
    return table


LAYER_METRICS = _layer_table()


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced job, as (value, unit)."""
    agg = {"s": {}, "self": {}, "calls": {}, "counts": dict(tracer.counts)}
    for name, start, end, _, child_s in tracer.spans:
        agg["s"][name] = agg["s"].get(name, 0.0) + (end - start)
        agg["self"][name] = agg["self"].get(name, 0.0) + (end - start - child_s)
        agg["calls"][name] = agg["calls"].get(name, 0) + 1
    counts = agg["counts"]
    counts["sampler.proposed"] = sum(s.stats.proposed for s in tracer.samplers.values())
    counts["sampler.accepted"] = sum(s.stats.accepted for s in tracer.samplers.values())
    if counts["sampler.proposed"]:
        counts["sampler.acceptance_rate"] = counts["sampler.accepted"] / counts["sampler.proposed"]
    steps = counts.get("trainer.steps", 0)
    if steps:
        counts["trainer.us_per_step"] = 1e6 * agg["s"]["trainer.train"] / steps
    return {metric: (read(agg), unit) for metric, (unit, read) in LAYER_METRICS.items()}
