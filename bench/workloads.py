"""The three workloads: what set-up makes, what one job runs, how it is checked.

Every timed operation is ``aespace.cli.main(argv)`` with the argument vector
a user would type, run in this process, except the one library call that the
collection workload makes (``ranker.kendall_tau``). Set-up writes every file
the program reads; the program is handed only those files.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from aespace import cli, ranker, video

import checks
import frames

D_IN = 16
NOISE = 0.05
PIPELINE_RECORDS = 2000
# The README trains with --steps 30000 and stops at the learning-rate floor,
# which lands anywhere from 15,000 to 23,000 steps depending on the seed
# (seeds 1-20 measured). Capping below that keeps the step count, and so the
# job's work, the same for every seed.
PIPELINE_STEPS = 12000
SAMPLE_COUNT = 1000
BATCH = 64  # the CLI default for --batch
COLLECTION_RECORDS = 5000
FIXTURE_RECORDS = 2000
FIXTURE_STEPS = 2000
VIDEO_FRAMES = 40000


class JobFailed(Exception):
    pass


class Ops:
    """Counts, times and (when a tracer is given) spans each operation."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        span = self.tracer.span(name) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                yield
        except Exception as exc:  # any failure of the program ends the job, not the run
            self.failed += 1
            traceback.print_exc()
            raise JobFailed(name) from exc
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start

    def cli(self, *argv) -> None:
        argv = [str(a) for a in argv]
        with self.op(f"cli.{argv[0]}"):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"aespace {argv[0]} exited with {code}")


def _synth(ops: Ops, n: int, seed: int, out: Path) -> None:
    ops.cli("synth", "--n", n, "--din", D_IN, "--noise", NOISE, "--seed", seed, "--out", out)


def _fixture_model(ops: Ops, d: Path, seed: int) -> Path:
    _synth(ops, FIXTURE_RECORDS, seed, d / "train.jsonl")
    ops.cli("train", "--input", d / "train.jsonl", "--steps", FIXTURE_STEPS, "--seed", seed,
            "--model-out", d / "model.json", "--log-out", d / "train_log.csv")
    return d / "model.json"


@dataclass
class Workload:
    name: str
    setup: Callable[[Ops, Path, int], dict]
    job: Callable[[Ops, Path, dict, int], None]
    outputs: list[str]  # files every job must write byte for byte alike
    check: Callable[[checks.Checker, list[Path], dict], None]
    report: Callable[[list[dict]], dict]  # this workload's own figures, as (value, unit)


def _median(jobs, key):
    return statistics.median(j["seconds"][key] for j in jobs)


# --- pipeline: the README quick start at benchmark size -----------------------

def _pipeline_setup(ops, d, seed):
    # the job makes its own data with synth; set-up makes the reference copy
    # that the job's synth output is checked against
    _synth(ops, PIPELINE_RECORDS, seed, d / "reference.jsonl")
    return {"reference": d / "reference.jsonl"}


def _pipeline_job(ops, d, inputs, seed):
    data, model = d / "data.jsonl", d / "model.json"
    _synth(ops, PIPELINE_RECORDS, seed, data)
    ops.cli("score", "--input", data, "--out", d / "scores.csv")
    ops.cli("sample", "--input", data, "--count", SAMPLE_COUNT, "--seed", seed,
            "--out", d / "triplets.csv")
    ops.cli("train", "--input", data, "--steps", PIPELINE_STEPS, "--seed", seed,
            "--model-out", model, "--log-out", d / "train_log.csv")
    ops.cli("embed", "--model", model, "--input", data, "--out", d / "embeddings.csv")
    ops.cli("rank", "--model", model, "--input", data, "--out", d / "ranking.csv")
    ops.cli("eval", "--model", model, "--input", data, "--out", d / "agreement.csv")
    ops.cli("video", "--model", model, "--frames", data, "--out", d / "frames.csv")


def _train_steps(d: Path) -> int:
    return int(checks.read_csv(d / "train_log.csv")[1][-1][0])


def _agreement_d04(d: Path) -> float:
    return checks.agreement_rows(d / "agreement.csv")[0.4][1]


def _pipeline_check(chk, dirs, inputs):
    d = dirs[0]
    chk("synth output equals the set-up reference",
        lambda: (checks.sha256(d / "data.jsonl") == checks.sha256(inputs["reference"]), ""))
    chk("score CSV equals ln(faves)/ln(views)", lambda: checks.score_csv(d / "scores.csv", d / "data.jsonl"))
    chk("sampled triplets lie strictly inside the window",
        lambda: checks.triplets_in_window(d / "triplets.csv", d / "data.jsonl", SAMPLE_COUNT))
    chk("agreement at delta 0.4 > 0.85",
        lambda: (_agreement_d04(d) > 0.85, f"{_agreement_d04(d)!r}"))


def _pipeline_report(jobs):
    steps = _train_steps(jobs[0]["dir"])
    return {
        "pipeline_s": (statistics.median(j["wall"] for j in jobs), "s"),
        "train_s": (_median(jobs, "cli.train"), "s"),
        "train_steps": (steps, "count"),
        "train_triplets_per_s": (
            statistics.median(steps * BATCH / j["seconds"]["cli.train"] for j in jobs), "1/s"),
        "agreement_d04": (_agreement_d04(jobs[0]["dir"]), "fraction"),
    }


# --- collection: rank and score a 5,000-record collection ---------------------

def _collection_setup(ops, d, seed):
    model = _fixture_model(ops, d, seed)
    _synth(ops, COLLECTION_RECORDS, seed, d / "collection.jsonl")
    return {"model": model, "collection": d / "collection.jsonl"}


def _collection_job(ops, d, inputs, seed):
    data, model = inputs["collection"], inputs["model"]
    ops.cli("score", "--input", data, "--out", d / "scores.csv")
    ops.cli("embed", "--model", model, "--input", data, "--out", d / "embeddings.csv")
    ops.cli("rank", "--model", model, "--input", data, "--out", d / "ranking.csv")
    ops.cli("eval", "--model", model, "--input", data, "--out", d / "agreement.csv")
    with ops.op("lib.kendall_tau"):
        rank_order = [row[1] for row in checks.read_csv(d / "ranking.csv")[1]]
        scored = checks.read_csv(d / "scores.csv")[1]
        crowd_order = [row[0] for row in sorted(scored, key=lambda r: (-float(r[1]), r[0]))]
        tau = ranker.kendall_tau(rank_order, crowd_order)
        (d / "kendall_tau.txt").write_text(repr(tau))


def _collection_check(chk, dirs, inputs):
    d = dirs[0]
    ids, true = checks.crowd_scores(inputs["collection"])
    embed_ids, norms = checks.embed_norms(d / "embeddings.csv")
    chk("score CSV equals ln(faves)/ln(views)", lambda: checks.score_csv(d / "scores.csv", inputs["collection"]))
    chk("embed CSV has every record in file order", lambda: (embed_ids == ids, f"{len(embed_ids)} rows"))
    chk("eval pairs equal a searchsorted count", lambda: checks.eval_pairs(d / "agreement.csv", true))
    chk("eval agreement equals a chunked reference",
        lambda: checks.eval_agreement(d / "agreement.csv", norms, true))
    chk("rank CSV is the embed norms sorted, ties by id",
        lambda: checks.rank_is_sorted_norms(d / "ranking.csv", embed_ids, norms))
    chk("kendall_tau equals scipy.stats.kendalltau",
        lambda: checks.kendall_matches_scipy(d / "kendall_tau.txt", d / "ranking.csv", ids, true))


def _collection_report(jobs):
    return {
        "collection_s": (statistics.median(j["wall"] for j in jobs), "s"),
        "embed_s": (_median(jobs, "cli.embed"), "s"),
        "rank_s": (_median(jobs, "cli.rank"), "s"),
        "eval_s": (_median(jobs, "cli.eval"), "s"),
        "kendall_tau_s": (_median(jobs, "lib.kendall_tau"), "s"),
    }


# --- video: highlight frames of a 40,000-frame sequence -----------------------

def _video_setup(ops, d, seed):
    model = _fixture_model(ops, d, seed)
    frames.write_frames(d / "frames.jsonl", seed, VIDEO_FRAMES)
    return {"model": model, "frames": d / "frames.jsonl"}


def _video_job(ops, d, inputs, seed):
    ops.cli("video", "--model", inputs["model"], "--frames", inputs["frames"],
            "--min-sep", frames.MIN_SEP, "--out", d / "frames.csv")


def _video_check(chk, dirs, inputs):
    ids, raw, smoothed, peaks = checks.read_frames_csv(dirs[0] / "frames.csv")
    chk("frame count equals the input", lambda: checks.frame_count(ids, VIDEO_FRAMES))
    chk("smoothed column is the Kalman recurrence of the raw column",
        lambda: checks.smoothed_is_kalman(raw, smoothed))
    chk("peaks are interior local maxima at least min-sep apart",
        lambda: checks.peaks_valid(smoothed, peaks, frames.MIN_SEP))
    chk("peaks equal a greedy thinning of the local maxima",
        lambda: checks.peaks_are_greedy_thinning(smoothed, peaks, frames.MIN_SEP))
    chk("prominences equal scipy.signal.peak_prominences at strict peaks",
        lambda: checks.prominences_match_scipy(smoothed, peaks, video.peak_prominences))


def _video_report(jobs):
    return {"video_s": (statistics.median(j["wall"] for j in jobs), "s")}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline", _pipeline_setup, _pipeline_job,
                 ["data.jsonl", "scores.csv", "triplets.csv", "model.json", "train_log.csv",
                  "embeddings.csv", "ranking.csv", "agreement.csv", "frames.csv"],
                 _pipeline_check, _pipeline_report),
        Workload("collection", _collection_setup, _collection_job,
                 ["scores.csv", "embeddings.csv", "ranking.csv", "agreement.csv", "kendall_tau.txt"],
                 _collection_check, _collection_report),
        Workload("video", _video_setup, _video_job, ["frames.csv"], _video_check, _video_report),
    )
}
