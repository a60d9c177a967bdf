"""Output checks that do not reuse the code under test.

Each check recomputes what the program wrote from the generated input files
with its own code (or with scipy), and compares. Heavy checks run on the
first job of a run; every later job is held to byte-identity with the first.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.signal
import scipy.stats

import frames

TOL = 1e-12


class Checker:
    def __init__(self):
        self.results: list[dict] = []

    def __call__(self, name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that cannot run has failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def crowd_scores(path: Path) -> tuple[list[str], np.ndarray]:
    ids, scores = [], []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            ids.append(obj["id"])
            scores.append(math.log(obj["faves"]) / math.log(obj["views"]))
    return ids, np.array(scores)


def identical_across_jobs(job_dirs: list[Path], names: list[str]):
    first = {name: sha256(job_dirs[0] / name) for name in names}
    differ = [f"{d.name}/{name}" for d in job_dirs[1:] for name in names
              if sha256(d / name) != first[name]]
    return not differ, f"{len(job_dirs)} jobs" + (f"; differ: {differ}" if differ else "")


def score_csv(path: Path, data: Path):
    ids, expected = crowd_scores(data)
    _, rows = read_csv(path)
    got = np.array([float(r[1]) for r in rows])
    ok = [r[0] for r in rows] == ids and np.allclose(got, expected, rtol=0, atol=TOL)
    return ok, f"{len(rows)} rows"


def triplets_in_window(path: Path, data: Path, count: int, alpha=0.25, beta=0.75):
    _, scores = crowd_scores(data)
    _, rows = read_csv(path)
    a, p, n = (np.array([int(r[k]) for r in rows]) for k in range(3))
    above = np.array([r[3] == "true" for r in rows])
    ratio = np.array([float(r[4]) for r in rows])
    ref = 0.5 * (scores[a] + scores[p])
    own = np.abs(scores[a] - scores[p]) / np.abs(ref - scores[n])
    ok = (
        len(rows) == count
        and np.all((a != p) & (a != n) & (p != n))
        and np.all((alpha < own) & (own < beta))
        and np.allclose(ratio, own, rtol=TOL, atol=0)
        and np.array_equal(above, ref > scores[n])
    )
    return ok, f"{len(rows)} triplets"


def agreement_rows(path: Path) -> dict[float, tuple[int, float]]:
    _, rows = read_csv(path)
    return {float(r[0]): (int(r[1]), float(r[2])) for r in rows}


def pairs_beyond(true: np.ndarray, delta: float) -> int:
    """Pairs with |true_i - true_j| > delta, by binary search on sorted scores."""
    s = np.sort(true)
    n = s.size
    k = np.searchsorted(s, s + delta, side="right")
    # s_k > s_i + delta and s_k - s_i > delta can disagree in the last bit:
    # move each boundary until the program's own predicate holds exactly
    while True:
        down = (k > 0) & ((s[np.maximum(k - 1, 0)] - s) > delta)
        up = (k < n) & ~((s[np.minimum(k, n - 1)] - s) > delta)
        if not (down.any() or up.any()):
            return int((n - k).sum())
        k = k - down + up


def agreement_reference(proj: np.ndarray, true: np.ndarray, deltas, chunk=512):
    """(pairs, agreeing pairs) per delta over i < j, a block of rows at a time."""
    n = true.size
    pairs = np.zeros(len(deltas), dtype=np.int64)
    agree = np.zeros(len(deltas), dtype=np.int64)
    cols = np.arange(n)
    for lo in range(0, n, chunk):
        rows = np.arange(lo, min(n, lo + chunk))
        dt = true[rows, None] - true[None, :]
        dp = proj[rows, None] - proj[None, :]
        upper = cols[None, :] > rows[:, None]
        same = ((dt > 0) & (dp > 0)) | ((dt < 0) & (dp < 0))
        gap = np.abs(dt)
        for k, delta in enumerate(deltas):
            sel = upper & (gap > delta)
            pairs[k] += np.count_nonzero(sel)
            agree[k] += np.count_nonzero(sel & same)
    return pairs, agree


def embed_norms(path: Path) -> tuple[list[str], np.ndarray]:
    _, rows = read_csv(path)
    phi = np.array([[float(v) for v in r[1:]] for r in rows])
    return [r[0] for r in rows], np.linalg.norm(phi, axis=1)


def eval_pairs(path: Path, true: np.ndarray):
    table = agreement_rows(path)
    wrong = {d: (pairs, pairs_beyond(true, d)) for d, (pairs, _) in table.items()
             if pairs != pairs_beyond(true, d)}
    return not wrong and len(table) > 0, f"{len(table)} thresholds" + (f"; wrong {wrong}" if wrong else "")


def eval_agreement(path: Path, proj: np.ndarray, true: np.ndarray):
    table = agreement_rows(path)
    deltas = sorted(table)
    pairs, agree = agreement_reference(proj, true, deltas)
    worst = 0.0
    for k, d in enumerate(deltas):
        if table[d][0] != pairs[k]:
            return False, f"delta {d}: {table[d][0]} pairs, reference {pairs[k]}"
        worst = max(worst, abs(table[d][1] - agree[k] / pairs[k]))
    return worst <= TOL, f"max |diff| {worst:.3g}"


def rank_is_sorted_norms(rank_path: Path, ids: list[str], norms: np.ndarray):
    _, rows = read_csv(rank_path)
    order = sorted(range(len(ids)), key=lambda i: (-norms[i], ids[i]))
    ok = (
        [r[0] for r in rows] == [str(k) for k in range(1, len(ids) + 1)]
        and [r[1] for r in rows] == [ids[i] for i in order]
        and np.allclose([float(r[2]) for r in rows], norms[order], rtol=TOL, atol=0)
    )
    return ok, f"{len(rows)} rows"


def kendall_matches_scipy(tau_path: Path, rank_path: Path, ids: list[str], scores: np.ndarray):
    tau = float(tau_path.read_text())
    _, rows = read_csv(rank_path)
    crowd = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    crowd_pos = {ids[i]: pos for pos, i in enumerate(crowd)}
    expected = scipy.stats.kendalltau(
        np.arange(len(rows)), [crowd_pos[r[1]] for r in rows]).statistic
    return abs(tau - expected) <= TOL, f"tau {tau!r}, scipy {expected!r}"


def read_frames_csv(path: Path):
    _, rows = read_csv(path)
    ids = [r[0] for r in rows]
    raw = np.array([float(r[1]) for r in rows])
    smoothed = np.array([float(r[2]) for r in rows])
    peaks = [i for i, r in enumerate(rows) if r[3] == "1"]
    return ids, raw, smoothed, peaks


def frame_count(ids: list[str], n: int):
    return ids == [f"frame-{t:06d}" for t in range(n)], f"{len(ids)} frames, expected {n}"


def smoothed_is_kalman(raw: np.ndarray, smoothed: np.ndarray):
    diff = np.max(np.abs(np.array(frames.kalman_reference(raw)) - smoothed))
    return diff <= TOL, f"max |diff| {diff:.3g}"


def local_maxima(s: np.ndarray) -> list[int]:
    """Interior strict maxima; a plateau with lower neighbours gives its first index."""
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], s.size] - 1
    inner = (starts > 0) & (ends < s.size - 1)
    starts, ends = starts[inner], ends[inner]
    keep = (s[starts - 1] < s[starts]) & (s[ends + 1] < s[starts])
    return starts[keep].tolist()


def peaks_valid(smoothed: np.ndarray, peaks: list[int], min_sep: int):
    candidates = set(local_maxima(smoothed))
    gaps = np.diff(peaks)
    ok = bool(peaks) and all(p in candidates for p in peaks) and (gaps.size == 0 or gaps.min() >= min_sep)
    return ok, f"{len(peaks)} peaks, min gap {gaps.min() if gaps.size else None}"


def peaks_are_greedy_thinning(smoothed: np.ndarray, peaks: list[int], min_sep: int):
    kept: list[int] = []
    for c in sorted(local_maxima(smoothed), key=lambda c: (-smoothed[c], c)):
        at = bisect.bisect_left(kept, c)
        if (at == 0 or c - kept[at - 1] >= min_sep) and (at == len(kept) or kept[at] - c >= min_sep):
            kept.insert(at, c)
    return kept == peaks, f"{len(kept)} expected, {len(peaks)} written"


def prominences_match_scipy(smoothed: np.ndarray, peaks: list[int], prominences):
    # scipy and the program agree on a strict peak; a plateau start is where
    # their semantics part, so it is left out
    strict = [p for p in peaks if smoothed[p + 1] < smoothed[p]]
    ours = np.array(prominences(smoothed, strict))
    ref = scipy.signal.peak_prominences(smoothed, strict)[0]
    diff = float(np.max(np.abs(ours - ref))) if strict else 0.0
    return bool(strict) and diff <= TOL, f"{len(strict)} strict peaks, max |diff| {diff:.3g}"
