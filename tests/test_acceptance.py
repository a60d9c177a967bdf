"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible under
``pytest -s``); the pytest verdict for ``test_criterion_N`` mirrors it.
The heavyweight fixtures are trained once and shared: ``benchmark_model``
(session-scoped, from ``conftest.py``) and ``ablation_model`` on the
n = 2000 benchmark, and ``mirrored_model`` and ``mirrored_ablation_model``
on its score-reversed twin.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from aespace import cli, data_model, encoder, ranker, synth, video
from aespace.loss import LossConfig, directional_triplet_loss
from aespace.sampler import SamplerConfig, TripletSampler, estimate_cardinality
from aespace.video import KalmanConfig, PeakConfig

THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def report(num, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {verdict} - {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


@pytest.fixture(scope="module")
def ablation_model(benchmark_dataset, train_benchmark):
    return train_benchmark(benchmark_dataset, directional=False)


@pytest.fixture(scope="module")
def mirrored_dataset(benchmark_dataset):
    """The benchmark with every latent score s replaced by 1 - s.

    Ids, views and features are kept; faves follow synth's own construction
    ``max(1, round(V**s))`` at the reversed score, so each record stays valid.
    """
    s = 1.0 - benchmark_dataset.latent_scores
    faves = [max(1, int(round(v ** float(t)))) for v, t in zip(benchmark_dataset.views, s)]
    return dataclasses.replace(benchmark_dataset, faves=faves, latent_scores=s)


@pytest.fixture(scope="module")
def mirrored_model(mirrored_dataset, train_benchmark):
    return train_benchmark(mirrored_dataset, directional=True)


@pytest.fixture(scope="module")
def mirrored_ablation_model(mirrored_dataset, train_benchmark):
    return train_benchmark(mirrored_dataset, directional=False)


def agreement_rows(params, dataset):
    embeddings = encoder.forward(params, dataset.features)
    proj = ranker.projection_score(embeddings)
    return ranker.pairwise_agreement(proj, dataset.latent_scores, THRESHOLDS)


def test_criterion_1_score_exactness():
    exact = abs(data_model.compute_score(1000, 10) - 1.0 / 3.0) < 1e-12
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        views = int(rng.integers(100, 10**6))
        faves = int(rng.integers(2, views + 1))
        k = int(rng.integers(2, 6))
        base = data_model.compute_score(views, faves)
        scaled = data_model.compute_score(views**k, faves**k)
        worst = max(worst, abs(scaled - base))
    report(1, "score model exactness and power-scaling invariance",
           exact and worst < 1e-10, f"max invariance error {worst:.2e}")


def test_criterion_2_uniform_histogram():
    dataset = synth.generate(synth.SynthConfig(n=10000, d_in=4, noise_sigma=0.0, seed=42))
    _, counts = data_model.score_histogram(dataset, bins=10)
    sigma = math.sqrt(10000 * 0.1 * 0.9)
    max_dev = float(np.max(np.abs(counts - 1000)))
    report(2, "10-bin score histogram uniform within 3 sigma",
           max_dev <= 3.0 * sigma, f"max deviation {max_dev:.0f} vs {3 * sigma:.0f}")


def test_criterion_3_sampler_soundness_completeness():
    config = SamplerConfig()

    # soundness: recompute the strict window on 10^4 accepted triplets
    rng = np.random.default_rng(30)
    scores = rng.uniform(size=200)
    smp = TripletSampler(scores, config)
    a, p, n = smp.collect_indices(10_000)
    ref = 0.5 * (scores[a] + scores[p])
    ratio = np.abs(scores[a] - scores[p]) / np.abs(ref - scores[n])
    sound = (
        bool(np.all((ratio > config.alpha) & (ratio < config.beta)))
        and bool(np.all((a != p) & (a != n) & (p != n)))
    )

    # completeness: accepted set over 10^6 proposals vs full enumeration
    scores20 = np.random.default_rng(31).uniform(size=20)
    admissible = set()
    for i, j, k in itertools.permutations(range(20), 3):
        den = abs(0.5 * (scores20[i] + scores20[j]) - scores20[k])
        if den == 0.0:
            continue
        r = abs(scores20[i] - scores20[j]) / den
        if config.alpha < r < config.beta:
            admissible.add((i, j, k))
    smp20 = TripletSampler(scores20, config)
    seen = set()
    while smp20.stats.proposed < 1_000_000:
        a, p, n = smp20.collect_indices(20_000)
        seen.update(zip(a.tolist(), p.tolist(), n.tolist()))
    complete = seen == admissible

    estimate = estimate_cardinality(20, smp20.stats)
    exact = len(admissible)
    rel = abs(estimate - exact) / exact
    report(3, "sampler soundness, completeness, cardinality within 15%",
           sound and complete and rel < 0.15,
           f"|D|={exact}, estimate rel err {rel:.3f}")


def test_criterion_4_gradient_oracle():
    dims = [5, 8, 6, 4]
    config = LossConfig()
    h = 1e-6
    rng = np.random.default_rng(40)
    worst = 0.0

    def objective(params, xs, s_a, s_n):
        ea, ep, en = (encoder.forward(params, x) for x in xs)
        return directional_triplet_loss(ea, ep, en, s_a, s_n, config).total

    instances = 0
    while instances < 10:
        params = encoder.init(dims, seed=int(rng.integers(1 << 30)))
        xs = [rng.normal(size=dims[0]) for _ in range(3)]
        s_a, s_n = rng.uniform(size=2)
        ea, ep, en = (encoder.forward(params, x) for x in xs)
        result = directional_triplet_loss(ea, ep, en, s_a, s_n, config)
        e_arg = config.margin_m + np.sum((ea - ep) ** 2) - np.sum((ea - en) ** 2)
        d_arg = config.margin_md + np.sign(s_n - s_a) * (
            np.linalg.norm(ea) - np.linalg.norm(en)
        )
        # stay clear of both hinge kinks and the score tie
        if min(abs(e_arg), abs(d_arg), abs(s_n - s_a)) < 1e-2:
            continue
        instances += 1

        grads = encoder.EncoderParams(params.layer_dims, np.zeros_like(params.flat))
        for x, g_phi in zip(xs, (result.grad_a, result.grad_p, result.grad_n)):
            part, _ = encoder.backward(params, x, g_phi)
            for acc, w in zip(grads.weights, part.weights):
                acc += w
            for acc, b in zip(grads.biases, part.biases):
                acc += b

        for layer in range(len(params.weights)):
            for arr, grad in (
                (params.weights[layer], grads.weights[layer]),
                (params.biases[layer], grads.biases[layer]),
            ):
                flat = arr.reshape(-1)
                gflat = grad.reshape(-1)
                for idx in range(flat.size):
                    keep = flat[idx]
                    flat[idx] = keep + h
                    up = objective(params, xs, s_a, s_n)
                    flat[idx] = keep - h
                    down = objective(params, xs, s_a, s_n)
                    flat[idx] = keep
                    fd = (up - down) / (2.0 * h)
                    scale = max(abs(fd), abs(gflat[idx]), 1.0)
                    worst = max(worst, abs(fd - gflat[idx]) / scale)

    report(4, "loss-through-encoder gradients match finite differences",
           worst < 1e-4, f"worst relative error {worst:.2e}")


def test_criterion_5_ordering_recovery(benchmark_dataset, benchmark_model):
    params, _ = benchmark_model
    embeddings = encoder.forward(params, benchmark_dataset.features)
    proj = ranker.projection_score(embeddings)
    latent = benchmark_dataset.latent_scores
    ids = benchmark_dataset.ids

    def order_by(values):
        idx = sorted(range(len(ids)), key=lambda i: (-values[i], ids[i]))
        return [ids[i] for i in idx]

    tau = ranker.kendall_tau(order_by(proj), order_by(latent))
    rows = agreement_rows(params, benchmark_dataset)
    agree = [row.agreement for row in rows]
    at_04 = agree[THRESHOLDS.index(0.4)]
    monotone = all(a <= b + 1e-12 for a, b in zip(agree, agree[1:]))
    report(5, "benchmark recovers latent order",
           tau >= 0.7 and at_04 >= 0.85 and monotone,
           f"tau {tau:.3f}, agreement@0.4 {at_04:.3f}, monotone {monotone}")


def test_criterion_6_directional_ablation(
    benchmark_dataset, benchmark_model, ablation_model,
    mirrored_dataset, mirrored_model, mirrored_ablation_model,
):
    # Without the directional term nothing in training depends on which end
    # of the score scale is good: the sampler window is unchanged under
    # s -> 1 - s and the distance hinge uses no score. An ablated model's
    # norm order is therefore arbitrary, and its agreements in the two
    # orientations sum to about 1. Only the directional term can push both
    # orientations above 0.85; in the mirrored one the feature norm, which
    # grows with the original score, points against it.
    def at_04(model, dataset):
        return agreement_rows(model[0], dataset)[THRESHOLDS.index(0.4)].agreement

    ablated = (at_04(ablation_model, benchmark_dataset),
               at_04(mirrored_ablation_model, mirrored_dataset))
    full = (at_04(benchmark_model, benchmark_dataset),
            at_04(mirrored_model, mirrored_dataset))
    ablated_mean = 0.5 * (ablated[0] + ablated[1])
    in_band = 0.35 <= ablated_mean <= 0.65
    report(6, "ablated norms near chance over both score orientations, "
              "full model above 0.85 in each",
           in_band and min(full) > 0.85,
           f"ablated S {ablated[0]:.3f} / 1-S {ablated[1]:.3f}, mean "
           f"{ablated_mean:.3f} vs band [0.35, 0.65]; full S {full[0]:.3f} / "
           f"1-S {full[1]:.3f}")


def test_criterion_7_kalman():
    out = video.kalman_smooth([1.0, 1.0], KalmanConfig(q=0.0, r=1.0, p0=1.0, x0=0.0))
    hand = abs(out[0] - 0.5) < 1e-12 and abs(out[1] - 2.0 / 3.0) < 1e-12

    rng = np.random.default_rng(70)
    noise = rng.normal(size=1000)
    smoothed = np.array(video.kalman_smooth(noise.tolist(), KalmanConfig()))
    reduced = smoothed.var() < noise.var()
    report(7, "Kalman hand example and variance reduction",
           hand and reduced,
           f"variance {noise.var():.3f} -> {smoothed.var():.3f}")


def test_criterion_8_peaks():
    examples = (
        video.detect_peaks([0.0, 1.0, 0.0, 2.0, 0.0]) == [1, 3]
        and video.detect_peaks([0.0, 1.0, 3.0, 2.0, 1.0]) == [2]
        and video.detect_peaks([3.0, 2.0, 1.0]) == []
    )

    rng = np.random.default_rng(80)
    ok = examples
    for _ in range(100):
        series = rng.normal(size=60)
        sep = int(rng.integers(1, 9))
        prom = float(rng.uniform(0.0, 1.5))
        kept = video.detect_peaks(
            series.tolist(), PeakConfig(min_separation=sep, min_prominence=prom)
        )
        candidates = video.detect_peaks(series.tolist())
        for i, a in enumerate(kept):
            ok = ok and a in candidates
            ok = ok and video.peak_prominences(series, [a])[0] >= prom
            ok = ok and all(abs(a - b) >= sep for b in kept[i + 1 :])
        for c in set(candidates) - set(kept):
            if video.peak_prominences(series, [c])[0] < prom:
                continue
            ok = ok and any(
                abs(k - c) < sep
                and (series[k] > series[c] or (series[k] == series[c] and k < c))
                for k in kept
            )
    report(8, "peak examples plus 100 recomputed random series", ok)


def test_criterion_9_cli_determinism(tmp_path):
    data = tmp_path / "d.jsonl"
    model = tmp_path / "m.json"
    log = tmp_path / "t.csv"

    def run_twice(argv_for, *outputs):
        first = tmp_path / "one"
        second = tmp_path / "two"
        first.mkdir(exist_ok=True)
        second.mkdir(exist_ok=True)
        assert cli.main(argv_for(first)) == 0
        assert cli.main(argv_for(second)) == 0
        return all(
            (first / name).read_bytes() == (second / name).read_bytes()
            for name in outputs
        )

    ok = run_twice(lambda d: [
        "synth", "--n", "40", "--din", "3", "--noise", "0.1", "--seed", "2",
        "--out", str(d / "d.jsonl")], "d.jsonl", "d.jsonl.sidecar.json")
    assert cli.main(["synth", "--n", "40", "--din", "3", "--noise", "0.1",
                     "--seed", "2", "--out", str(data)]) == 0
    assert cli.main(["train", "--input", str(data), "--embed-dim", "4",
                     "--hidden", "8", "--steps", "30", "--batch", "8",
                     "--seed", "4", "--model-out", str(model),
                     "--log-out", str(log)]) == 0

    ok = ok and run_twice(lambda d: [
        "score", "--input", str(data), "--out", str(d / "s.csv")], "s.csv")
    ok = ok and run_twice(lambda d: [
        "sample", "--input", str(data), "--count", "30", "--seed", "3",
        "--out", str(d / "tr.csv")], "tr.csv")
    ok = ok and run_twice(lambda d: [
        "train", "--input", str(data), "--embed-dim", "4", "--hidden", "8",
        "--steps", "30", "--batch", "8", "--seed", "4",
        "--model-out", str(d / "m.json"), "--log-out", str(d / "t.csv")],
        "m.json", "t.csv")
    ok = ok and run_twice(lambda d: [
        "embed", "--model", str(model), "--input", str(data),
        "--out", str(d / "e.csv")], "e.csv")
    ok = ok and run_twice(lambda d: [
        "rank", "--model", str(model), "--input", str(data),
        "--out", str(d / "r.csv")], "r.csv")
    ok = ok and run_twice(lambda d: [
        "eval", "--model", str(model), "--input", str(data),
        "--out", str(d / "ev.csv")], "ev.csv")
    ok = ok and run_twice(lambda d: [
        "video", "--model", str(model), "--frames", str(data),
        "--out", str(d / "v.csv")], "v.csv")
    report(9, "every subcommand is byte-identical across repeat runs", ok)
