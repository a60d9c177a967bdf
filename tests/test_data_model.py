import csv
import math
import os
import stat
import threading

import numpy as np
import pytest

from aespace.data_model import (
    Dataset,
    ImageRecord,
    compute_score,
    load_dataset,
    save_dataset,
    score_histogram,
    write_csv,
)
from aespace.errors import EmptyInputError, FormatError, ParseError, RecordError


def make_record(rec_id, views, faves, features=(0.0, 1.0)):
    return ImageRecord(id=rec_id, views=views, faves=faves, features=np.array(features, dtype=float))


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
    def test_features_cast_to_float(self):
        rec = make_record("a", 10, 2, [1, 2])
        assert rec.features.dtype == np.float64


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
        assert ds.records[0].id == "x"

    def test_invalid_views_soft_rejected(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "bad", "views": 1, "faves": 1, "features": [0.0]}\n'
            '{"id": "ok", "views": 100, "faves": 5, "features": [0.0]}\n'
        )
        with caplog.at_level("WARNING"):
            ds = load_dataset(path)
        assert [r.id for r in ds.records] == ["ok"]
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
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_latent_score_out_of_range_soft_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "x", "views": 100, "faves": 5, "features": [0.0], "latent_score": 1.5}\n')
        assert len(load_dataset(path)) == 0

    def test_round_trip_exact(self, tmp_path):
        records = [
            ImageRecord("a", 1000, 10, np.array([0.1, 1.0 / 3.0]), latent_score=0.25),
            ImageRecord("b", 12345, 678, np.array([1e-17, -2.5])),
        ]
        ds = Dataset(records=records, d_in=2)
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert len(loaded) == 2
        for orig, back in zip(records, loaded.records):
            assert back.id == orig.id
            assert back.views == orig.views
            assert back.faves == orig.faves
            assert np.array_equal(back.features, orig.features)
            assert back.latent_score == orig.latent_score


class TestScoreHistogram:
    def test_two_scores_two_bins(self):
        # V=1024: F=2 gives score 0.1 exactly, F=512 gives 0.9 exactly
        ds = Dataset(records=[make_record("a", 1024, 2), make_record("b", 1024, 512)], d_in=2)
        edges, counts = score_histogram(ds, 2)
        assert list(counts) == [1, 1]
        np.testing.assert_allclose(edges, [0.0, 0.5, 1.0])

    def test_score_one_lands_in_last_bin(self):
        ds = Dataset(records=[make_record(f"r{i}", 50, 50) for i in range(5)], d_in=2)
        _, counts = score_histogram(ds, 4)
        assert list(counts) == [0, 0, 0, 5]

    def test_counts_sum_to_size(self):
        rng = np.random.default_rng(3)
        records = []
        for i in range(200):
            v = int(rng.integers(2, 10**5))
            f = int(rng.integers(1, v + 1))
            records.append(make_record(f"r{i}", v, f))
        ds = Dataset(records=records, d_in=2)
        edges, counts = score_histogram(ds, 7)
        assert counts.sum() == 200
        assert edges[0] == 0.0 and edges[-1] == 1.0
        np.testing.assert_allclose(np.diff(edges), 1.0 / 7.0)

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyInputError):
            score_histogram(Dataset(records=[], d_in=None), 4)

    def test_bad_bin_count_raises(self):
        ds = Dataset(records=[make_record("a", 10, 2)], d_in=2)
        with pytest.raises(ValueError):
            score_histogram(ds, 0)

    def test_csv_output(self, tmp_path):
        ds = Dataset(records=[make_record("a", 1024, 2), make_record("b", 1024, 512)], d_in=2)
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
