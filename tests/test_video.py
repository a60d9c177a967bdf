import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from aespace import cli, encoder
from aespace.errors import (
    ConfigError,
    EmptyInputError,
    FormatError,
    NonFiniteError,
    ParseError,
    ShapeError,
)
from aespace.video import (
    KalmanConfig,
    PeakConfig,
    detect_peaks,
    kalman_smooth,
    load_frames,
    peak_prominences,
    score_sequence,
)


def identity_params(dim):
    params = encoder.init([dim, dim], seed=0)
    params.weights[0] = np.eye(dim)
    params.biases[0] = np.zeros(dim)
    return params


def oracle_prominences(series, peaks):
    """The two outward scans per peak that ``peak_prominences`` replaced."""
    proms = []
    for i in peaks:
        height = series[i]
        left = i
        left_min = height
        while left > 0 and series[left - 1] <= height:
            left -= 1
            left_min = min(left_min, series[left])
        right = i
        right_min = height
        while right < series.size - 1 and series[right + 1] <= height:
            right += 1
            right_min = min(right_min, series[right])
        proms.append(float(height - max(left_min, right_min)))
    return proms


def oracle_peaks(series, config):
    """The index walk and all-kept-peaks thinning that ``detect_peaks`` replaced."""
    series = np.asarray(series, dtype=np.float64)
    candidates = []
    i = 1
    n = series.size
    while i < n - 1:
        if series[i] > series[i - 1]:
            j = i
            while j < n - 1 and series[j + 1] == series[i]:
                j += 1
            if j < n - 1 and series[j + 1] < series[i]:
                candidates.append(i)
            i = j + 1
        else:
            i += 1

    proms = oracle_prominences(series, candidates)
    candidates = [c for c, pr in zip(candidates, proms) if pr >= config.min_prominence]

    kept: list[int] = []
    for c in sorted(candidates, key=lambda c: (-series[c], c)):
        if all(abs(c - k) >= config.min_separation for k in kept):
            kept.append(c)
    return sorted(kept)


class TestConfigs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=-1e-9), dict(r=0.0), dict(r=-1.0), dict(p0=0.0),
            dict(q=float("nan")), dict(r=float("nan")), dict(p0=float("nan")),
            dict(q=float("inf")), dict(p0=float("inf")),
        ],
    )
    def test_invalid_kalman(self, kwargs):
        with pytest.raises(ConfigError):
            KalmanConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(min_separation=0), dict(min_prominence=-0.1), dict(min_prominence=float("nan"))],
    )
    def test_invalid_peaks(self, kwargs):
        with pytest.raises(ConfigError):
            PeakConfig(**kwargs).validate()


class TestScoreSequence:
    def test_empty(self):
        assert score_sequence(identity_params(3), np.zeros((0, 3))) == []

    def test_identical_frames(self):
        frames = np.tile([3.0, 4.0], (6, 1))
        assert score_sequence(identity_params(2), frames) == [5.0] * 6

    def test_sorted_frames_give_sorted_scores(self):
        rng = np.random.default_rng(50)
        frames = rng.normal(size=(20, 4))
        order = np.argsort(-np.linalg.norm(frames, axis=1))
        scores = score_sequence(identity_params(4), frames[order])
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            score_sequence(identity_params(3), np.zeros((4, 2)))


class TestKalman:
    def test_hand_example(self):
        cfg = KalmanConfig(q=0.0, r=1.0, p0=1.0, x0=0.0)
        out = kalman_smooth([1.0, 1.0], cfg)
        assert abs(out[0] - 0.5) < 1e-12
        assert abs(out[1] - 2.0 / 3.0) < 1e-12

        # variance 1/3 after two steps gives gain (1/3) / (1/3 + r) = 1/4 on a
        # third measurement, read as the share of the innovation taken up
        out = kalman_smooth([1.0, 1.0, 0.0], cfg)
        gain = (out[2] - out[1]) / (0.0 - out[1])
        assert abs(gain - 0.25) < 1e-12

    def test_measurement_trust_limit(self):
        # r much smaller than q keeps the gain pinned near 1, so the
        # filter follows the measurements almost exactly
        rng = np.random.default_rng(51)
        series = rng.normal(size=200).tolist()
        out = kalman_smooth(series, KalmanConfig(q=1e-4, r=1e-12))
        np.testing.assert_allclose(out, series, atol=1e-6)

    def test_gain_approaches_one_when_r_vanishes(self):
        cfg = KalmanConfig(q=1e-4, r=1e-12, x0=0.0)
        series = [1.0, -2.0, 0.5, 3.0, 0.0]
        out = kalman_smooth(series, cfg)
        for prev, z, x in zip([0.0, *out], series, out):
            assert (x - prev) / (z - prev) > 1.0 - 1e-7

    def test_constant_input_constant_output(self):
        out = kalman_smooth([2.5] * 50, KalmanConfig(q=1e-3, r=1e-2))
        np.testing.assert_allclose(out, 2.5, atol=1e-14)

    def test_length_preserved(self):
        out = kalman_smooth(list(range(17)), KalmanConfig())
        assert len(out) == 17

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            kalman_smooth([], KalmanConfig())

    def test_gain_stays_in_unit_interval(self):
        rng = np.random.default_rng(52)
        cfg = KalmanConfig(q=1e-4, r=1e-2, p0=1.0, x0=0.0)
        series = rng.normal(size=500).tolist()
        out = kalman_smooth(series, cfg)
        # a gain in (0, 1) puts each estimate strictly between the previous
        # estimate and the measurement
        for prev, z, x in zip([0.0, *out], series, out):
            assert min(prev, z) < x < max(prev, z)

    @pytest.mark.parametrize("q", [0.0, 1e-3])
    def test_variance_reduction_on_white_noise(self, q):
        rng = np.random.default_rng(53)
        series = rng.normal(loc=3.0, scale=1.0, size=1000)
        out = np.array(kalman_smooth(series.tolist(), KalmanConfig(q=q, r=1e-2)))
        assert out.var() < series.var()


class TestDetectPeaks:
    def test_hand_example(self):
        assert detect_peaks([0.0, 1.0, 0.0, 2.0, 0.0]) == [1, 3]

    def test_unimodal(self):
        assert detect_peaks([0.0, 1.0, 2.0, 5.0, 3.0, 1.0]) == [3]

    def test_monotone(self):
        assert detect_peaks([1.0, 2.0, 3.0, 4.0]) == []
        assert detect_peaks([4.0, 3.0, 2.0, 1.0]) == []

    def test_plateau_takes_leftmost(self):
        assert detect_peaks([0.0, 2.0, 2.0, 1.0]) == [1]
        assert detect_peaks([0.0, 2.0, 2.0]) == []
        assert detect_peaks([2.0, 2.0, 1.0]) == []

    def test_min_separation(self):
        series = [0.0, 3.0, 0.0, 2.0, 0.0, 1.0, 0.0]
        assert detect_peaks(series, PeakConfig(min_separation=2)) == [1, 3, 5]
        assert detect_peaks(series, PeakConfig(min_separation=3)) == [1, 5]

    def test_equal_heights_keep_earlier(self):
        assert detect_peaks([0.0, 2.0, 0.0, 2.0, 0.0], PeakConfig(min_separation=3)) == [1]

    def test_min_prominence(self):
        series = [0.0, 5.0, 2.0, 3.0, 0.0]
        assert peak_prominences(np.array(series), [1, 3]) == [5.0, 1.0]
        assert detect_peaks(series, PeakConfig(min_prominence=2.0)) == [1]
        assert detect_peaks(series, PeakConfig(min_prominence=0.5)) == [1, 3]

    def test_candidates_and_prominences_match_scipy(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            series = rng.normal(size=60)
            ours = detect_peaks(series.tolist())
            ref, _ = scipy.signal.find_peaks(series)
            assert ours == ref.tolist()
            ours_prom = peak_prominences(series, ours)
            ref_prom = scipy.signal.peak_prominences(series, ref)[0]
            np.testing.assert_allclose(ours_prom, ref_prom, atol=1e-12)

    def test_greedy_filter_certificate(self):
        # every survivor obeys both constraints; every dropped candidate
        # fails prominence or sits within min_separation of a taller (or
        # equal-height, earlier) survivor
        rng = np.random.default_rng(55)
        for _ in range(100):
            series = rng.normal(size=80)
            sep = int(rng.integers(1, 10))
            prom = float(rng.uniform(0.0, 2.0))
            cfg = PeakConfig(min_separation=sep, min_prominence=prom)
            kept = detect_peaks(series.tolist(), cfg)
            candidates = detect_peaks(series.tolist())
            kept_set = set(kept)
            assert kept == sorted(kept_set)
            for i, a in enumerate(kept):
                assert a in candidates
                assert peak_prominences(series, [a])[0] >= prom
                for b in kept[i + 1 :]:
                    assert abs(a - b) >= sep
            for c in candidates:
                if c in kept_set:
                    continue
                if peak_prominences(series, [c])[0] < prom:
                    continue
                blockers = [
                    k
                    for k in kept
                    if abs(k - c) < sep
                    and (series[k] > series[c] or (series[k] == series[c] and k < c))
                ]
                assert blockers, f"candidate {c} dropped without cause"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_series_raises(self, bad):
        with pytest.raises(NonFiniteError):
            detect_peaks([0.0, 1.0, bad, 1.0, 0.0])

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        values=st.lists(st.integers(0, 4), min_size=1, max_size=59),
        sep=st.integers(1, 7),
        prom=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    def test_matches_loop_oracle_on_ties(self, values, sep, prom):
        series = np.array(values, dtype=np.float64)
        every = list(range(series.size))
        assert peak_prominences(series, every) == oracle_prominences(series, every)
        cfg = PeakConfig(min_separation=sep, min_prominence=prom)
        assert detect_peaks(values, cfg) == oracle_peaks(series, cfg)


class TestFrameIO:
    def test_load_frames_without_counts(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(
            '{"id": "f0", "features": [1.0, 2.0]}\n'
            '{"id": "f1", "views": 100, "faves": 5, "features": [3.0, 4.0]}\n'
        )
        ids, features = load_frames(path)
        assert ids == ["f0", "f1"]
        np.testing.assert_array_equal(features, [[1.0, 2.0], [3.0, 4.0]])

    def test_load_frames_inconsistent_length(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(
            '{"id": "f0", "features": [1.0, 2.0]}\n{"id": "f1", "features": [1.0]}\n'
        )
        with pytest.raises(FormatError):
            load_frames(path)

    def test_load_frames_bad_json(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"id": \n')
        with pytest.raises(ParseError):
            load_frames(path)

    def test_write_frame_csv(self, tmp_path):
        frames = tmp_path / "f.jsonl"
        frames.write_text(
            '{"id": "f0", "features": [1.0, 0.0]}\n'
            '{"id": "f1", "features": [0.0, 3.0]}\n'
            '{"id": "f2", "features": [1.0, 0.0]}\n'
        )
        model = tmp_path / "m.json"
        encoder.save(identity_params(2), model)
        out = tmp_path / "v.csv"
        assert cli.main([
            "video", "--model", str(model), "--frames", str(frames),
            "--q", "0.0", "--r", "1.0", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        smoothed = kalman_smooth([1.0, 3.0, 1.0], KalmanConfig(q=0.0, r=1.0))
        assert lines[0] == "frame,raw_score,smoothed_score,is_peak"
        assert lines[1] == f"f0,1.0,{smoothed[0]!r},0"
        assert lines[2] == f"f1,3.0,{smoothed[1]!r},1"
        assert lines[3] == f"f2,1.0,{smoothed[2]!r},0"
        assert len(lines) == 4
