import csv
import json
import math
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

from aespace import encoder
from aespace.data_model import (
    ROW_BLOCK,
    Dataset,
    compute_score,
    load_dataset,
    read_blocks,
    row_blocks,
    save_dataset,
    score_histogram,
    write_csv,
)
from aespace.ranker import embed
from aespace.errors import InputError, ParseError, RecordError


def make_dataset(counts):
    """A dataset of (id, views, faves) rows, each with features (0, 1) and no latent score."""
    n = len(counts)
    ids, views, faves = (list(column) for column in zip(*counts)) if counts else ([], [], [])
    return Dataset(ids, views, faves, np.tile([0.0, 1.0], (n, 1)), np.full(n, np.nan))


def write_lines(path, objs):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")


def rejections(caplog):
    return [m for m in caplog.messages if m.startswith("rejected record")]


# an integer that parses as a Python int but has no float64 value
HUGE = int("1" + "0" * 400)


class TestComputeScore:
    def test_thousand_views_ten_faves_is_one_third(self):
        assert abs(compute_score(1000, 10) - 1.0 / 3.0) < 1e-12

    def test_faves_equal_views_is_one(self):
        for v in (2, 3, 17, 1000, 10**9):
            assert compute_score(v, v) == 1.0

    def test_single_fave_is_zero(self):
        assert compute_score(500, 1) == 0.0

    def test_rejects_views_below_two(self):
        for v in (1, 0, -5):
            with pytest.raises(RecordError) as exc:
                compute_score(v, 1)
            assert exc.value.field == "views"

    def test_rejects_bad_faves(self):
        with pytest.raises(RecordError) as exc:
            compute_score(100, 0)
        assert exc.value.field == "faves"
        with pytest.raises(RecordError) as exc:
            compute_score(100, 101)
        assert exc.value.field == "faves"

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = int(rng.integers(2, 10**6))
            f = int(rng.integers(1, v + 1))
            assert 0.0 <= compute_score(v, f) <= 1.0

    def test_monotone_in_faves(self):
        scores = [compute_score(1000, f) for f in range(2, 1001)]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_monotone_in_views(self):
        scores = [compute_score(v, 50) for v in range(51, 400)]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_power_scaling_invariance(self):
        assert abs(compute_score(1000, 10) - compute_score(10**6, 100)) < 1e-12
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = int(rng.integers(2, 1000))
            f = int(rng.integers(1, v + 1))
            k = int(rng.integers(1, 4))
            assert abs(compute_score(v**k, f**k) - compute_score(v, f)) < 1e-10


class TestRecordValidation:
    def test_features_cast_to_float(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "views": 10, "faves": 2, "features": [1, 2]}\n')
        ds = load_dataset(path)
        assert ds.features.dtype == np.float64
        assert ds.features.tolist() == [[1.0, 2.0]]

    def test_each_kind_of_rejection_is_named(self, tmp_path, caplog):
        ok = {"id": "ok", "views": 100, "faves": 5, "features": [1.0, 2.0]}
        write_lines(tmp_path / "d.jsonl", [
            ok,
            {**ok, "id": "v", "views": 1, "faves": 1},
            {**ok, "id": "f0", "faves": 0},
            {**ok, "id": "f1", "faves": 101},
            {**ok, "id": "nan", "features": [float("nan"), 2.0]},
            {**ok, "id": "lat", "latent_score": 2},
            {**ok, "id": "latnan", "latent_score": float("nan")},
            ok,
        ])
        with caplog.at_level("INFO"):
            ds = load_dataset(tmp_path / "d.jsonl")
        assert len(ds) == 1
        assert rejections(caplog) == [
            "rejected record at line 2 (views): views must be >= 2, got 1",
            "rejected record at line 3 (faves): faves must be >= 1, got 0",
            "rejected record at line 4 (faves): faves (101) exceeds views (100)",
            "rejected record at line 5 (features): non-finite feature entry",
            "rejected record at line 6 (latent_score): latent_score 2.0 outside [0, 1]",
            "rejected record at line 7 (latent_score): latent_score nan outside [0, 1]",
            "rejected record at line 8 (id): duplicate id 'ok'",
        ]
        assert f"load_dataset({tmp_path / 'd.jsonl'}): rejected 7 record(s)" in caplog.messages

    def test_bad_views_and_features_reported_as_views(self, tmp_path, caplog):
        write_lines(tmp_path / "d.jsonl", [
            {"id": "x", "views": 0, "faves": 5, "features": [float("inf"), 1.0]},
        ])
        with caplog.at_level("WARNING"):
            assert len(load_dataset(tmp_path / "d.jsonl")) == 0
        assert rejections(caplog) == ["rejected record at line 1 (views): views must be >= 2, got 0"]

    def test_rejected_record_does_not_claim_its_id(self, tmp_path):
        kept = {"id": "x", "views": 100, "faves": 5, "features": [2.0]}
        write_lines(tmp_path / "d.jsonl", [{**kept, "faves": 500, "features": [1.0]}, kept])
        save_dataset(load_dataset(tmp_path / "d.jsonl"), tmp_path / "out.jsonl")
        assert (tmp_path / "out.jsonl").read_text() == json.dumps(kept) + "\n"

    @pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["positive", "negative"])
    def test_feature_beyond_float_range_rejects_only_its_record(self, tmp_path, caplog, value):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "a", "views": 100, "faves": 5, "features": [1, 2]}\n'
            f'{{"id": "b", "views": 100, "faves": 5, "features": [1, {value}]}}\n'
            '{"id": "c", "views": 100, "faves": 5, "features": [3, 4.5]}\n'
        )
        with caplog.at_level("WARNING"):
            ds = load_dataset(path)
        assert ds.ids == ["a", "c"]
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.5]]
        assert rejections(caplog) == ["rejected record at line 2 (features): non-finite feature entry"]

    def test_latent_score_beyond_float_range_rejected(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text(
            f'{{"id": "a", "views": 100, "faves": 5, "features": [1.0], "latent_score": {HUGE}}}\n'
            '{"id": "b", "views": 100, "faves": 5, "features": [1.0], "latent_score": 1e400}\n'
        )
        with caplog.at_level("WARNING"):
            assert len(load_dataset(path)) == 0
        assert rejections(caplog) == [
            "rejected record at line 1 (latent_score): latent_score inf outside [0, 1]",
            "rejected record at line 2 (latent_score): latent_score inf outside [0, 1]",
        ]


class TestLoadSave:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        ds = load_dataset(path)
        assert len(ds) == 0
        assert ds.d_in is None

    def test_single_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "x", "views": 100, "faves": 5, "features": [1.0, 2.0]}\n')
        ds = load_dataset(path)
        assert len(ds) == 1
        assert ds.d_in == 2
        assert ds.ids == ["x"]

    def test_invalid_views_soft_rejected(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "bad", "views": 1, "faves": 1, "features": [0.0]}\n'
            '{"id": "ok", "views": 100, "faves": 5, "features": [0.0]}\n'
        )
        with caplog.at_level("WARNING"):
            ds = load_dataset(path)
        assert ds.ids == ["ok"]
        assert any("line 1" in m for m in caplog.messages)

    def test_faves_above_views_soft_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "bad", "views": 10, "faves": 11, "features": [0.0]}\n')
        assert len(load_dataset(path)) == 0

    def test_duplicate_id_soft_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        line = '{"id": "x", "views": 100, "faves": 5, "features": [1.0]}\n'
        path.write_text(line + line)
        assert len(load_dataset(path)) == 1

    def test_malformed_json_is_fatal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "x", "views": 100\n')
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize("line, message", [
        ('[1, 2]', "record is not a JSON object"),
        ('{"id": 7, "views": 100, "faves": 5, "features": [0.0]}', "missing or non-string 'id'"),
        ('{"id": "x", "views": 100, "faves": 5, "features": [0.0, "1"]}',
         "'features' entries must be numbers"),
        ('{"id": "x", "views": 100, "faves": 5, "features": [0.0, true]}',
         "'features' entries must be numbers"),
        ('{"id": "x", "views": 100, "faves": 5, "features": [0.0], "latent_score": "0.5"}',
         "'latent_score' must be a number"),
        ('{"id": "x", "views": 100, "faves": 5, "features": ' + "[" * 100_000,
         r"invalid JSON \(nested too deeply\)"),
    ], ids=["not_object", "id", "feature", "bool_feature", "latent_score", "nested"])
    def test_bad_structure_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "views": 100, "faves": 5, "features": [0.0]}\n' + line + "\n")
        with pytest.raises(ParseError, match=f"^line 2: {message}$"):
            load_dataset(path)

    def test_non_utf8_line_names_its_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"id": "a", "views": 100, "faves": 5, "features": [0.0]}\n'
                         b'{"id": "caf\xe9", "views": 100, "faves": 5, "features": [0.0]}\n')
        with pytest.raises(ParseError, match=r"^line 2: not UTF-8 text \("):
            load_dataset(path)

    def test_crlf_lines_load_as_lf(self, tmp_path):
        rows = [{"id": f"r{i}", "views": 100, "faves": 5, "features": [i, 0.5]} for i in range(3)]
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        write_lines(lf, rows)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        expected, loaded = load_dataset(lf), load_dataset(crlf)
        assert loaded.ids == expected.ids
        assert loaded.features.tobytes() == expected.features.tobytes()

    def test_non_integer_views_is_fatal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "x", "views": 100.5, "faves": 5, "features": [0.0]}\n')
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_boolean_views_is_fatal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "x", "views": true, "faves": 5, "features": [0.0]}\n')
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_missing_features_is_fatal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "x", "views": 100, "faves": 5}\n')
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_inconsistent_feature_length_is_fatal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "a", "views": 100, "faves": 5, "features": [0.0, 1.0]}\n'
            '{"id": "b", "views": 100, "faves": 5, "features": [0.0]}\n'
        )
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_latent_score_out_of_range_soft_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "x", "views": 100, "faves": 5, "features": [0.0], "latent_score": 1.5}\n')
        assert len(load_dataset(path)) == 0

    def test_round_trip_exact(self, tmp_path):
        ds = Dataset(["a", "b"], [1000, 12345], [10, 678],
                     np.array([[0.1, 1.0 / 3.0], [1e-17, -2.5]]), np.array([0.25, np.nan]))
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert len(loaded) == 2
        assert loaded.ids == ds.ids
        assert loaded.views == ds.views
        assert loaded.faves == ds.faves
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.latent_scores, ds.latent_scores, equal_nan=True)

    def test_round_trip_across_row_blocks_exact(self, tmp_path):
        n = 2 * ROW_BLOCK + 1
        rng = np.random.default_rng(14)
        latents = rng.uniform(size=n)
        latents[::3] = np.nan
        ds = Dataset([f"r{i}" for i in range(n)], [1000 + i for i in range(n)],
                     [1 + i % 1000 for i in range(n)], rng.normal(size=(n, 3)), latents)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(ds, first)
        loaded = load_dataset(first)
        save_dataset(loaded, second)
        again = load_dataset(second)
        assert second.read_bytes() == first.read_bytes()
        for got in (loaded, again):
            assert got.ids == ds.ids
            assert got.views == ds.views
            assert got.faves == ds.faves
            np.testing.assert_array_equal(got.features, ds.features)
            np.testing.assert_array_equal(got.latent_scores, ds.latent_scores)

    def test_save_holds_one_block_of_feature_lists(self, tmp_path):
        # lists of the whole matrix would take about 2.9 MB here
        n = 5_000
        ds = Dataset([f"r{i}" for i in range(n)], [100] * n, [5] * n,
                     np.random.default_rng(15).normal(size=(n, 16)), np.full(n, np.nan))
        tracemalloc.start()
        try:
            save_dataset(ds, tmp_path / "d.jsonl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * ds.features.nbytes

    def test_row_beyond_float_range_rejected_alone_and_width_error_names_its_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [{"id": f"r{i}", "views": 100, "faves": 5, "features": [i, 0.5]} for i in range(5)]
        rows[2]["features"] = [HUGE, 0.5]
        write_lines(path, rows)
        ds = load_dataset(path)
        assert ds.ids == ["r0", "r1", "r3", "r4"]
        assert ds.features.tolist() == [[0.0, 0.5], [1.0, 0.5], [3.0, 0.5], [4.0, 0.5]]
        rows[3]["features"] = [3.0]
        write_lines(path, rows)
        with pytest.raises(ParseError, match="line 4: feature length 1 != 2"):
            load_dataset(path)

    def test_feature_matrix_is_the_loader_buffer(self, tmp_path):
        rows = [{"id": f"r{i}", "views": 100, "faves": 5, "features": [i, 0.5]} for i in range(3)]
        rows[1]["faves"] = 0
        write_lines(tmp_path / "d.jsonl", rows)
        ds = load_dataset(tmp_path / "d.jsonl")
        assert ds.features.tolist() == [[0.0, 0.5], [2.0, 0.5]]
        assert not ds.features.flags.owndata

    def test_rejections_before_a_bad_line_are_logged(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "views": 1, "faves": 1, "features": [1.0]}\n{"id": \n')
        with caplog.at_level("WARNING"), pytest.raises(ParseError, match="^line 2: invalid JSON"):
            load_dataset(path)
        assert rejections(caplog) == ["rejected record at line 1 (views): views must be >= 2, got 1"]

    def test_mixed_latent_scores_round_trip_byte_identical(self, tmp_path):
        source = tmp_path / "in.jsonl"
        write_lines(source, [
            {"id": "a", "views": 1000, "faves": 10, "features": [0.1, -0.0], "latent_score": 0.25},
            {"id": "b", "views": 12345, "faves": 678, "features": [1e-17, -2.5]},
            {"id": "c", "views": 7, "faves": 7, "features": [3.0, 1.0 / 3.0], "latent_score": 1.0},
            {"id": "d", "views": 2, "faves": 1, "features": [5e-324, 1e308], "latent_score": 0.0},
            {"id": "e", "views": 99, "faves": 98, "features": [2.0, 4.0]},
        ])
        out = tmp_path / "out.jsonl"
        save_dataset(load_dataset(source), out)
        assert out.read_bytes() == source.read_bytes()

    def test_counts_of_any_size_round_trip(self, tmp_path):
        source = tmp_path / "in.jsonl"
        write_lines(source, [{"id": "a", "views": 10**20, "faves": 10**19, "features": [1.0]}])
        ds = load_dataset(source)
        assert ds.scores().tolist() == [math.log(10**19) / math.log(10**20)]
        out = tmp_path / "out.jsonl"
        save_dataset(ds, out)
        assert out.read_bytes() == source.read_bytes()

    def test_score_is_per_record_math_log(self, tmp_path):
        # np.log(3) / np.log(9170) is 0.12041312010582254, one ulp away
        path = tmp_path / "d.jsonl"
        write_lines(path, [{"id": "synth-005342", "views": 9170, "faves": 3, "features": [0.0]}])
        assert load_dataset(path).scores().tolist() == [0.12041312010582252]


class TestScoreHistogram:
    def test_two_scores_two_bins(self):
        # V=1024: F=2 gives score 0.1 exactly, F=512 gives 0.9 exactly
        ds = make_dataset([("a", 1024, 2), ("b", 1024, 512)])
        edges, counts = score_histogram(ds, 2)
        assert list(counts) == [1, 1]
        np.testing.assert_allclose(edges, [0.0, 0.5, 1.0])

    def test_score_one_lands_in_last_bin(self):
        ds = make_dataset([(f"r{i}", 50, 50) for i in range(5)])
        _, counts = score_histogram(ds, 4)
        assert list(counts) == [0, 0, 0, 5]

    def test_counts_sum_to_size(self):
        rng = np.random.default_rng(3)
        counts = []
        for i in range(200):
            v = int(rng.integers(2, 10**5))
            f = int(rng.integers(1, v + 1))
            counts.append((f"r{i}", v, f))
        ds = make_dataset(counts)
        edges, counts = score_histogram(ds, 7)
        assert counts.sum() == 200
        assert edges[0] == 0.0 and edges[-1] == 1.0
        np.testing.assert_allclose(np.diff(edges), 1.0 / 7.0)

    def test_empty_dataset_raises(self):
        with pytest.raises(InputError):
            score_histogram(make_dataset([]), 4)

    def test_bad_bin_count_raises(self):
        ds = make_dataset([("a", 10, 2)])
        with pytest.raises(InputError):
            score_histogram(ds, 0)

    def test_csv_output(self, tmp_path):
        ds = make_dataset([("a", 1024, 2), ("b", 1024, 512)])
        edges, counts = score_histogram(ds, 2)
        path = tmp_path / "h.csv"
        rows = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
        write_csv(path, ("bin_lo", "bin_hi", "count"), rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert lines[1] == "0.0,0.5,1"
        assert lines[2] == "0.5,1.0,1"


class TestWriteCsv:
    def test_quotes_only_what_needs_it_and_parses_back(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [("plain", 2.5, 7), ("a,b", 0.1, 3), ('q"x', float("nan"), -1), ("line\nbreak", 1e-300, 0)]
        write_csv(path, ("id", "x", "n"), rows)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[:4] == ["id,x,n", "plain,2.5,7", '"a,b",0.1,3', '"q""x",nan,-1']
        assert "\r" not in text
        with open(path, newline="", encoding="utf-8") as fh:
            back = list(csv.reader(fh))
        assert back == [["id", "x", "n"]] + [[r[0], repr(r[1]), str(r[2])] for r in rows]

    @pytest.mark.parametrize("before", [None, "old contents\n"])
    def test_failure_mid_write_leaves_target_absent_or_unchanged(self, tmp_path, before):
        path = tmp_path / "t.csv"
        if before is not None:
            path.write_text(before, encoding="utf-8")

        def rows():
            # enough rows to flush several buffers to disk before the failure
            for i in range(20_000):
                yield ("row", i)
            raise RuntimeError("failure mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            write_csv(path, ("id", "n"), rows())
        if before is None:
            assert not path.exists()
        else:
            assert path.read_text(encoding="utf-8") == before
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["t.csv"])

    def test_writes_through_a_symlink_and_into_a_pipe(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        write_csv(link, ("a",), [(1,)])
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == "a\n1\n"

        # a pipe, as behind --out /dev/stdout, must stay a pipe
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text(encoding="utf-8")), daemon=True)
        reader.start()
        write_csv(fifo, ("a",), [(1,)])
        reader.join(timeout=10)
        assert got == ["a\n1\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)


class TestReadBlocks:
    @pytest.mark.parametrize("n, sizes", [
        (0, [0]), (1, [1]), (2, [2]), (ROW_BLOCK - 1, [ROW_BLOCK - 1]), (ROW_BLOCK, [ROW_BLOCK]),
        (ROW_BLOCK + 1, [ROW_BLOCK + 1]), (ROW_BLOCK + 2, [ROW_BLOCK, 2]),
        (2 * ROW_BLOCK + 1, [ROW_BLOCK, ROW_BLOCK + 1]),
    ])
    def test_blocks_are_the_file_in_order_with_no_lone_row(self, tmp_path, n, sizes):
        # a lone last row would go through BLAS's matrix-vector kernel and change bits
        path = tmp_path / "d.jsonl"
        write_lines(path, [{"id": f"r{i}", "views": 100, "faves": 1 + i % 100,
                            "features": [i, 0.5], "latent_score": 0.5} for i in range(n)])
        blocks = list(read_blocks(path))
        assert [len(block) for block in blocks] == sizes
        whole = load_dataset(path)
        for column in ("ids", "views", "faves"):
            assert [v for block in blocks for v in getattr(block, column)] == getattr(whole, column)
        for column in ("features", "latent_scores"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(block, column) for block in blocks]), getattr(whole, column))

    @pytest.mark.parametrize("n", [0, 1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 2,
                                   2 * ROW_BLOCK + 1, 2 * ROW_BLOCK + 2, 3 * ROW_BLOCK + 2])
    def test_a_stream_is_cut_where_row_blocks_cuts_the_whole_matrix(self, tmp_path, n):
        # so a streamed command makes the BLAS calls of one over the loaded matrix
        path = tmp_path / "d.jsonl"
        features = np.random.default_rng(14).normal(size=(n, 16))
        save_dataset(Dataset([f"r{i}" for i in range(n)], [100] * n, [1 + i % 100 for i in range(n)],
                             features, np.full(n, np.nan)), path)
        blocks = list(read_blocks(path))
        whole = load_dataset(path).features
        assert [len(block) for block in blocks] == [len(block) for block in row_blocks(whole)]
        params = encoder.init([16, 64, 32, 16], seed=7)
        phi, norms = embed(params, whole)
        streamed = [embed(params, block.features) for block in blocks]
        assert np.concatenate([block_phi for block_phi, _ in streamed]).tobytes() == phi.tobytes()
        assert np.concatenate([block_norms for _, block_norms in streamed]).tobytes() == norms.tobytes()

    def test_frames_keep_ids_and_features_only(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"id": "f0", "features": [1.0, 2.0]}\n'
                        '{"id": "f0", "views": 100, "faves": 5, "features": [3.0, 4.0]}\n')
        [block] = read_blocks(path, frames=True)
        assert (block.ids, block.views, block.faves, block.latent_scores.size) == (["f0", "f0"], [], [], 0)
        np.testing.assert_array_equal(block.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_a_bad_line_is_raised_once_the_reading_reaches_it(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [{"id": f"r{i}", "views": 100, "faves": 5, "features": [1.0]}
                           for i in range(ROW_BLOCK + 2)])
        with path.open("a") as fh:
            fh.write("[]\n")
        blocks = read_blocks(path)
        assert len(next(blocks)) == ROW_BLOCK
        with pytest.raises(ParseError, match=f"^line {ROW_BLOCK + 3}: record is not a JSON object$"):
            next(blocks)
