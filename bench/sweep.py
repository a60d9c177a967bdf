"""Scaling sweep for the layers whose cost grows faster than linearly.

Run only in the traced run. Each case is timed once, untraced. The two
pairwise evaluations allocate in proportion to n**2 today, so each is first
run at ``PROBE_N`` under ``tracemalloc`` and its peak is scaled by (n/PROBE_N)**2
to predict the allocation at size n. A case whose prediction exceeds
``MEM_SHARE`` of ``MemAvailable`` is not run: it is reported as skipped with
its estimate, never dropped or run at another size. The prediction follows
the code being measured, so a sub-quadratic implementation lifts the guard by
itself.
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path

import numpy as np

from aespace import data_model, ranker, synth, video

import frames

RANK_SIZES = (2000, 5000, 20000)
PEAK_FRAMES = (20000, 80000)
DATASET_RECORDS = 50000
PROBE_N = 2000
MEM_SHARE = 0.5  # the machine is shared: leave at least half of what is free


def mem_available_bytes() -> int:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("MemAvailable not found in /proc/meminfo")


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _score_pair(rng, n):
    true = rng.uniform(0.0, 1.0, n)
    proj = true + rng.normal(0.0, 0.2, n)
    return proj, true


def _orders(rng, n):
    ids = [f"r{i:06d}" for i in range(n)]
    return ids, [ids[i] for i in rng.permutation(n)]


def run(seed: int, work: Path, log) -> tuple[dict, list[dict]]:
    """Run every case; returns (metrics, case records for the result file)."""
    rng = np.random.default_rng([seed, 3])
    metrics: dict[str, tuple[float, str]] = {}
    cases: list[dict] = []
    limit = MEM_SHARE * mem_available_bytes()

    quadratic = {
        "ranker.pairwise_agreement": (
            lambda n: _score_pair(rng, n),
            lambda proj, true: ranker.pairwise_agreement(proj, true, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)),
        ),
        "ranker.kendall_tau": (lambda n: _orders(rng, n), ranker.kendall_tau),
    }
    for name, (make, fn) in quadratic.items():
        probe = _peak_bytes(fn, *make(PROBE_N))
        for n in RANK_SIZES:
            estimate = probe * (n / PROBE_N) ** 2
            skipped = estimate > limit
            seconds = 0.0 if skipped else _timed(fn, *make(n))
            metrics[f"{name}.s.n{n}"] = (seconds, "s")
            metrics[f"{name}.est_mb.n{n}"] = (estimate / 2**20, "MB")
            metrics[f"{name}.skipped.n{n}"] = (int(skipped), "count")
            cases.append({"case": f"{name}.n{n}", "skipped": skipped, "seconds": seconds,
                          "estimate_mb": estimate / 2**20, "limit_mb": limit / 2**20})
            state = f"skipped: predicted {estimate / 2**20:.0f} MB > {limit / 2**20:.0f} MB" \
                if skipped else f"{seconds:.3f} s"
            log(f"sweep {name} n={n}: {state}")

    for n in PEAK_FRAMES:
        series = frames.smoothed_walk(rng, n)
        seconds = _timed(video.detect_peaks, series, video.PeakConfig(min_separation=frames.MIN_SEP))
        metrics[f"video.detect_peaks.s.n{n}"] = (seconds, "s")
        cases.append({"case": f"video.detect_peaks.n{n}", "skipped": False, "seconds": seconds})
        log(f"sweep video.detect_peaks frames={n}: {seconds:.3f} s")

    dataset = synth.generate(synth.SynthConfig(n=DATASET_RECORDS, d_in=16, noise_sigma=0.05, seed=seed))
    path = work / "sweep.jsonl"
    for name, fn, args in (
        ("data_model.save_dataset", data_model.save_dataset, (dataset, path)),
        ("data_model.load_dataset", data_model.load_dataset, (path,)),
    ):
        seconds = _timed(fn, *args)
        metrics[f"{name}.s.n{DATASET_RECORDS}"] = (seconds, "s")
        cases.append({"case": f"{name}.n{DATASET_RECORDS}", "skipped": False, "seconds": seconds})
        log(f"sweep {name} records={DATASET_RECORDS}: {seconds:.3f} s")
    path.unlink()
    return metrics, cases
