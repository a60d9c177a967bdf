"""aespace benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload pipeline|collection|video [--seed 7]
                         [--seconds 30] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. Each workload is a single client in a closed loop: the
next job starts when the previous one has finished, for ``--seconds`` and at
least two jobs. ``--trace 0`` reports the end-to-end metrics, measured with no
tracing; ``--trace 1`` runs untraced and traced jobs in turn and reports the
per-layer metrics, the tracing overhead and the scaling sweep. Human-readable
lines come first; the last line of standard output is one JSON object. Work
files live in ``.bench_work/`` under the checkout and are removed at the end,
except the result file (with every span of a traced run) in
``.bench_work/results/``.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported: the machine has two
# cores and the program is single-threaded by design.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set-up repeats at least SETUP_REPS times and until it has taken SETUP_MIN_S,
# so that a set-up of a few tens of milliseconds still gets a steady median
SETUP_REPS = 3
SETUP_MIN_S = 2.0
MIN_JOBS = 2


def _import_program():
    if not (ROOT / "src" / "aespace" / "__init__.py").is_file():
        sys.exit(f"bench: no aespace package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


_import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, JobFailed, Ops  # noqa: E402


def _openblas_threads():
    """Thread count OpenBLAS reports, when numpy bundles an OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(seed: int) -> dict:
    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "seed": seed,
    }


class Run:
    def __init__(self, workload, seed: int, seconds: int, work: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0

    def _count(self, ops: Ops) -> None:
        self.attempted += ops.attempted
        self.failed += ops.failed

    def setup(self) -> tuple[dict, float]:
        d = self.work / "setup"
        d.mkdir(parents=True, exist_ok=True)
        ops = Ops()
        start = time.perf_counter()
        try:
            inputs = self.w.setup(ops, d, self.seed)
        finally:
            self._count(ops)
        return inputs, time.perf_counter() - start

    def job(self, inputs: dict, index: int, traced: bool) -> dict:
        d = self.work / f"job{index}"
        d.mkdir()
        tracer = tracing.Tracer() if traced else None
        ops = Ops(tracer)
        ok = True
        start = time.perf_counter()
        try:
            if traced:
                with tracing.installed(tracer), tracer.span(tracing.JOB_SPAN):
                    self.w.job(ops, d, inputs, self.seed)
            else:
                self.w.job(ops, d, inputs, self.seed)
        except JobFailed:
            ok = False
        wall = time.perf_counter() - start
        self._count(ops)
        return {"dir": d, "wall": wall, "seconds": ops.seconds, "ok": ok, "tracer": tracer}

    def check(self, inputs: dict, jobs: list[dict]) -> list[dict]:
        chk = checks.Checker()
        dirs = [j["dir"] for j in jobs]
        if all(j["ok"] for j in jobs):
            chk("outputs byte-identical across jobs", lambda: checks.identical_across_jobs(dirs, self.w.outputs))
            self.w.check(chk, dirs, inputs)
        self.failed += chk.failed
        return chk.results


def run_e2e(run: Run, log) -> tuple[dict, dict]:
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        inputs, seconds = run.setup()
        setups.append(seconds)
    jobs = []
    start = time.perf_counter()
    while True:
        jobs.append(run.job(inputs, len(jobs), traced=False))
        elapsed = time.perf_counter() - start
        typical = statistics.median(j["wall"] for j in jobs)
        if not jobs[-1]["ok"] or (len(jobs) >= MIN_JOBS and elapsed + typical > run.seconds):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = run.check(inputs, jobs)
    ok_jobs = [j for j in jobs if j["ok"]] or jobs
    metrics = {
        "job_s": (statistics.median(j["wall"] for j in ok_jobs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    named = run.w.report(ok_jobs) if all(j["ok"] for j in jobs) else {}
    log(f"{len(jobs)} jobs in {time.perf_counter() - start:.1f} s; {len(setups)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups) + " s")
    log(f"timings are medians of {len(ok_jobs)} jobs ({len(setups)} set-ups for setup_s); "
        "no tail percentile: fewer than 10 samples lie beyond any")
    for name, (value, unit) in {**named, **metrics}.items():
        log(f"  {name:24s} {value:.6g} {unit}")
    detail = {"checks": results, "named": named,
              "jobs": [{"wall": j["wall"], "seconds": j["seconds"], "ok": j["ok"]} for j in jobs],
              "setups": setups}
    return metrics, detail


def run_traced(run: Run, log) -> tuple[dict, dict]:
    inputs, _ = run.setup()
    jobs = []
    start = time.perf_counter()
    while True:
        # alternate which side goes first so drift does not favour either
        for traced in ((False, True) if len(jobs) % 4 == 0 else (True, False)):
            jobs.append(run.job(inputs, len(jobs), traced=traced))
        elapsed = time.perf_counter() - start
        pair = elapsed / (len(jobs) // 2)
        if not all(j["ok"] for j in jobs) or elapsed + pair > run.seconds:
            break
    results = run.check(inputs, jobs)
    traced = [j for j in jobs if j["tracer"] is not None]
    plain = [j for j in jobs if j["tracer"] is None]
    per_job = [tracing.layer_metrics(j["tracer"]) for j in traced]
    metrics = {name: (statistics.median(m[name][0] for m in per_job), unit)
               for name, (_, unit) in per_job[0].items()}
    overhead = statistics.median(j["wall"] for j in traced) / statistics.median(j["wall"] for j in plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    log(f"{len(plain)} untraced and {len(traced)} traced jobs; per-layer values are medians over traced jobs")
    sweep_metrics, cases = sweep.run(run.seed, run.work, log)
    metrics.update(sweep_metrics)
    for name, (value, unit) in metrics.items():
        log(f"  {name:44s} {value:.6g} {unit}")
    detail = {"checks": results, "sweep": cases,
              "jobs": [{"traced": j["tracer"] is not None, "wall": j["wall"], "ok": j["ok"],
                        "spans": j["tracer"].dump() if j["tracer"] else None} for j in jobs]}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    def log(line):
        print(line, flush=True)

    facts = machine_facts(args.seed)
    log("machine " + json.dumps(facts))
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-{os.getpid()}"
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, work)
    try:
        metrics, detail = (run_traced if args.trace else run_e2e)(run, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for result in detail["checks"]:
        log(f"check {'ok  ' if result['ok'] else 'FAIL'} {result['check']}: {result['detail']}")
    log(f"failure_rate {run.failed / run.attempted:.6g} ({run.failed} nonzero exits and failed "
        f"checks over {run.attempted} operations)")
    out = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (base / "results").mkdir(parents=True, exist_ok=True)
    result_file = base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({"machine": facts, **out, **detail}, default=str) + "\n")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
