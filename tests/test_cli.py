import csv
import json
import os
import sys
import threading

import numpy as np
import pytest

from aespace import cli, data_model, encoder, trainer


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_meta(primary):
    with open(f"{primary}.meta.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset plus a small trained model, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cliws")
    dataset = root / "data.jsonl"
    model = root / "model.json"
    log = root / "train.csv"
    assert cli.main([
        "synth", "--n", "60", "--din", "4", "--noise", "0.1",
        "--seed", "5", "--out", str(dataset),
    ]) == 0
    assert cli.main([
        "train", "--input", str(dataset), "--embed-dim", "4", "--hidden", "8",
        "--steps", "60", "--batch", "16", "--seed", "7",
        "--model-out", str(model), "--log-out", str(log),
    ]) == 0
    return {"root": root, "dataset": dataset, "model": model, "log": log}


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run("synth", "--n", "10", "--out", "x.jsonl") == 2
        capsys.readouterr()

    def test_semantic_flag_error(self, tmp_path, capsys):
        code = run("synth", "--n", "10", "--din", "1", "--out", tmp_path / "d.jsonl")
        assert code == 2
        err = capsys.readouterr().err
        assert "usage:" in err

    @pytest.mark.parametrize("argv", [
        ("video", "--q", "nan"), ("video", "--r", "nan"), ("video", "--min-prom", "nan"),
        ("synth", "--n", "10", "--din", "4", "--noise", "nan"),
        ("train", "--lr", "nan"), ("train", "--margin", "nan"), ("train", "--dir-margin", "nan"),
        ("train", "--margin", "inf"), ("train", "--lr", "inf"),
    ])
    def test_nan_flag_is_usage_error(self, workspace, tmp_path, capsys, argv):
        out = tmp_path / "out"
        if argv[0] == "video":
            argv += ("--model", workspace["model"], "--frames", workspace["dataset"])
        if argv[0] == "train":
            argv += ("--input", workspace["dataset"], "--steps", "5", "--model-out", out,
                     "--log-out", tmp_path / "log")
        else:
            argv += ("--out", out)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "must be finite" in err or argv[0] != "train"
        assert not out.exists()

    @pytest.mark.parametrize("past_max, code", [(0, 0), (1, 2)])
    def test_view_hi_beyond_float_range(self, tmp_path, capsys, past_max, code):
        hi = int(sys.float_info.max) + past_max
        out = tmp_path / "d.jsonl"
        assert run("synth", "--n", "5", "--din", "3", "--view-hi", hi, "--out", out) == code
        assert out.exists() == (code == 0)
        assert ("view_range.hi must be at most" in capsys.readouterr().err) == (code == 2)

    def test_alpha_beta_order_rejected(self, workspace, tmp_path, capsys):
        code = run(
            "sample", "--input", workspace["dataset"], "--alpha", "0.9",
            "--beta", "0.2", "--out", tmp_path / "t.csv",
        )
        assert code == 2
        capsys.readouterr()

    def test_bad_thresholds(self, workspace, tmp_path, capsys):
        code = run(
            "eval", "--model", workspace["model"], "--input", workspace["dataset"],
            "--thresholds", "0.3,0.2", "--out", tmp_path / "e.csv",
        )
        assert code == 2
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path, capsys):
        code = run("score", "--input", tmp_path / "absent.jsonl", "--out", tmp_path / "s.csv")
        assert code == 1
        capsys.readouterr()

    def test_starvation_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "flat.jsonl"
        with open(path, "w") as fh:
            for i in range(4):
                fh.write(json.dumps({"id": f"r{i}", "views": 1000, "faves": 31,
                                     "features": [0.0, 0.0]}) + "\n")
        code = run(
            "sample", "--input", path, "--count", "1",
            "--max-proposals", "500", "--out", tmp_path / "t.csv",
        )
        assert code == 1
        assert "no acceptable triplet" in capsys.readouterr().err

    def test_dimension_mismatch(self, workspace, tmp_path, capsys):
        other = tmp_path / "wide.jsonl"
        assert run("synth", "--n", "10", "--din", "6", "--out", other) == 0
        code = run(
            "embed", "--model", workspace["model"], "--input", other,
            "--out", tmp_path / "e.csv",
        )
        assert code == 1
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert run("--version") == 0
        assert "aespace" in capsys.readouterr().out


class TestSeedResolution:
    def test_env_seed_matches_flag(self, tmp_path, monkeypatch):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert run("synth", "--n", "20", "--din", "3", "--seed", "9", "--out", a) == 0
        monkeypatch.setenv(cli.SEED_ENV_VAR, "9")
        assert run("synth", "--n", "20", "--din", "3", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        monkeypatch.setenv(cli.SEED_ENV_VAR, "1234")
        assert run("synth", "--n", "20", "--din", "3", "--seed", "9", "--out", a) == 0
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        assert run("synth", "--n", "20", "--din", "3", "--seed", "9", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert read_meta(a)["seed"] == 9

    def test_default_seed_is_zero(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert run("synth", "--n", "20", "--din", "3", "--out", a) == 0
        assert run("synth", "--n", "20", "--din", "3", "--seed", "0", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unparseable_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        code = run("synth", "--n", "20", "--din", "3", "--out", tmp_path / "a.jsonl")
        assert code == 2
        capsys.readouterr()


class TestDeterminism:
    def rerun_identical(self, tmp_path, argv_for):
        a_out = tmp_path / "runa.out"
        b_out = tmp_path / "runb.out"
        assert cli.main(argv_for(a_out)) == 0
        assert cli.main(argv_for(b_out)) == 0
        assert a_out.read_bytes() == b_out.read_bytes()
        meta_a = read_meta(a_out)
        meta_b = read_meta(b_out)
        # paths and wall time differ between the two runs by construction
        for meta in (meta_a, meta_b):
            meta.pop("duration_s")
            meta.pop("inputs")
            meta.pop("outputs")
        assert meta_a == meta_b

    def test_synth(self, tmp_path):
        self.rerun_identical(tmp_path, lambda out: [
            "synth", "--n", "30", "--din", "3", "--noise", "0.2",
            "--seed", "2", "--out", str(out)])

    def test_score(self, workspace, tmp_path):
        self.rerun_identical(tmp_path, lambda out: [
            "score", "--input", str(workspace["dataset"]), "--out", str(out)])

    def test_sample(self, workspace, tmp_path):
        self.rerun_identical(tmp_path, lambda out: [
            "sample", "--input", str(workspace["dataset"]), "--count", "50",
            "--seed", "3", "--out", str(out)])

    def test_embed(self, workspace, tmp_path):
        self.rerun_identical(tmp_path, lambda out: [
            "embed", "--model", str(workspace["model"]),
            "--input", str(workspace["dataset"]), "--out", str(out)])

    def test_rank(self, workspace, tmp_path):
        self.rerun_identical(tmp_path, lambda out: [
            "rank", "--model", str(workspace["model"]),
            "--input", str(workspace["dataset"]), "--out", str(out)])

    def test_eval(self, workspace, tmp_path):
        self.rerun_identical(tmp_path, lambda out: [
            "eval", "--model", str(workspace["model"]),
            "--input", str(workspace["dataset"]), "--out", str(out)])

    def test_video(self, workspace, tmp_path):
        self.rerun_identical(tmp_path, lambda out: [
            "video", "--model", str(workspace["model"]),
            "--frames", str(workspace["dataset"]), "--out", str(out)])

    def test_train(self, workspace, tmp_path):
        a_model = tmp_path / "a.json"
        b_model = tmp_path / "b.json"
        a_log = tmp_path / "a.csv"
        b_log = tmp_path / "b.csv"

        def argv(model, log):
            return ["train", "--input", str(workspace["dataset"]),
                    "--embed-dim", "4", "--hidden", "8", "--steps", "30",
                    "--batch", "8", "--seed", "11",
                    "--model-out", str(model), "--log-out", str(log)]

        assert cli.main(argv(a_model, a_log)) == 0
        assert cli.main(argv(b_model, b_log)) == 0
        assert a_model.read_bytes() == b_model.read_bytes()
        assert a_log.read_bytes() == b_log.read_bytes()


class TestOutputs:
    def test_score_roundtrip(self, tmp_path):
        path = tmp_path / "two.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"id": "cube", "views": 1000, "faves": 10,
                                 "features": [0.0]}) + "\n")
            fh.write(json.dumps({"id": "flat", "views": 500, "faves": 1,
                                 "features": [1.0]}) + "\n")
        out = tmp_path / "scores.csv"
        assert run("score", "--input", path, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,score"
        name, value = lines[1].split(",")
        assert name == "cube"
        assert abs(float(value) - 1.0 / 3.0) < 1e-12
        assert lines[2] == "flat,0.0"

    def test_score_csv_is_per_record_math_log(self, tmp_path):
        # np.log(3) / np.log(9170) is 0.12041312010582254, one ulp away
        path = tmp_path / "one.jsonl"
        path.write_text('{"id": "synth-005342", "views": 9170, "faves": 3, "features": [0.0]}\n')
        out = tmp_path / "scores.csv"
        assert run("score", "--input", path, "--out", out) == 0
        assert out.read_text().splitlines() == ["id,score", "synth-005342,0.12041312010582252"]

    def test_sample_meta_carries_stats(self, workspace, tmp_path):
        out = tmp_path / "trip.csv"
        assert run("sample", "--input", workspace["dataset"], "--count", "25",
                   "--seed", "1", "--out", out) == 0
        meta = read_meta(out)
        assert meta["stats"]["accepted"] == 25
        assert meta["stats"]["proposed"] >= 25
        assert 0.0 < meta["stats"]["acceptance_rate"] <= 1.0
        assert len(out.read_text().splitlines()) == 26

    def test_meta_common_fields(self, workspace):
        meta = read_meta(workspace["model"])
        assert meta["subcommand"] == "train"
        assert meta["seed"] == 7
        assert meta["config"]["embed_dim"] == 4
        assert meta["config"]["loss"]["margin_m"] == 0.2
        assert meta["inputs"] == [str(workspace["dataset"])]
        assert set(meta["outputs"]) == {str(workspace["model"]), str(workspace["log"])}
        assert meta["artifact_version"] == cli.__version__
        assert meta["duration_s"] >= 0.0

    def test_meta_records_sampler_seed_in_use(self, workspace):
        meta = read_meta(workspace["model"])
        assert meta["config"]["sampler"]["seed"] == trainer.derive_seeds(7)[1]

    def test_train_zero_steps_writes_initial_model(self, workspace, tmp_path):
        model_path = tmp_path / "init.json"
        log_path = tmp_path / "init.csv"
        assert run("train", "--input", workspace["dataset"], "--embed-dim", "4",
                   "--hidden", "8", "--steps", "0", "--seed", "21",
                   "--model-out", model_path, "--log-out", log_path) == 0
        params = encoder.load(model_path)
        init_seed, _ = trainer.derive_seeds(21)
        expected = encoder.init([4, 8, 4], seed=init_seed)
        for got, want in zip(params.weights, expected.weights):
            np.testing.assert_array_equal(got, want)
        assert log_path.read_text().splitlines() == [
            "step,mean_loss,mean_le,mean_ld,lr,acceptance_rate"
        ]

    def test_no_directional_zeroes_log_column(self, workspace, tmp_path):
        log_path = tmp_path / "nd.csv"
        assert run("train", "--input", workspace["dataset"], "--embed-dim", "4",
                   "--hidden", "8", "--steps", "40", "--batch", "8", "--seed", "3",
                   "--no-directional", "--model-out", tmp_path / "nd.json",
                   "--log-out", log_path) == 0
        rows = log_path.read_text().splitlines()[1:]
        assert rows
        assert all(row.split(",")[3] == "0.0" for row in rows)

    def test_embed_header_and_width(self, workspace, tmp_path):
        out = tmp_path / "emb.csv"
        assert run("embed", "--model", workspace["model"],
                   "--input", workspace["dataset"], "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,phi0,phi1,phi2,phi3"
        assert len(lines) == 61

    def test_rank_is_sorted(self, workspace, tmp_path):
        out = tmp_path / "rank.csv"
        assert run("rank", "--model", workspace["model"],
                   "--input", workspace["dataset"], "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,id,score"
        scores = [float(line.split(",")[2]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 61))

    def test_eval_default_thresholds(self, workspace, tmp_path):
        out = tmp_path / "eval.csv"
        assert run("eval", "--model", workspace["model"],
                   "--input", workspace["dataset"], "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,pairs,agreement"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "0.1", "0.2", "0.3", "0.4", "0.5", "0.6"]

    def test_video_marks_peaks(self, workspace, tmp_path):
        out = tmp_path / "video.csv"
        assert run("video", "--model", workspace["model"],
                   "--frames", workspace["dataset"], "--q", "0.01",
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frame,raw_score,smoothed_score,is_peak"
        assert len(lines) == 61
        flags = {line.split(",")[3] for line in lines[1:]}
        assert flags <= {"0", "1"}

    def test_synth_dataset_loads(self, workspace):
        dataset = data_model.load_dataset(workspace["dataset"])
        assert len(dataset) == 60
        assert dataset.d_in == 4

    def test_synth_writes_sidecar(self, workspace):
        with open(f"{workspace['dataset']}.sidecar.json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        assert sidecar["seed"] == 5
        assert len(sidecar["mixing_matrix"]) == 4
        assert all(len(row) == 5 for row in sidecar["mixing_matrix"])


class TestBadArtifacts:
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_rank_rejects_non_finite_model(self, workspace, tmp_path, capsys, bad):
        payload = json.loads(workspace["model"].read_text())
        payload["weights"][1][3] = float(bad)
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(payload))
        assert bad in model.read_text()
        out = tmp_path / "rank.csv"
        code = run("rank", "--model", model, "--input", workspace["dataset"], "--out", out)
        assert code == 1
        assert "non-finite weight or bias" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["embed", "rank", "eval", "video"])
    def test_model_without_layers_fails(self, workspace, tmp_path, capsys, command):
        # one layer dim and no weights would load as the identity map
        model = tmp_path / "identity.json"
        model.write_text('{"version": 1, "layer_dims": [4], "weights": [], "biases": []}')
        out = tmp_path / "out.csv"
        data_flag = "--frames" if command == "video" else "--input"
        code = run(command, "--model", model, data_flag, workspace["dataset"], "--out", out)
        assert code == 1
        assert f"aespace {command}: error: model file {model}: layer_dims" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["embed", "rank", "eval", "video"])
    def test_non_finite_model_output_fails(self, workspace, tmp_path, capsys, command):
        # finite weights that load, but whose output overflows
        payload = json.loads(workspace["model"].read_text())
        payload["weights"] = [[w * 1e200 for w in layer] for layer in payload["weights"]]
        model = tmp_path / "huge.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "out.csv"
        data_flag = "--frames" if command == "video" else "--input"
        code = run(command, "--model", model, data_flag, workspace["dataset"], "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert "model output is not finite for 60 of 60 input(s)" in err
        assert "Warning" not in err
        assert not out.exists()
        assert not (tmp_path / "out.csv.meta.json").exists()

    @pytest.mark.parametrize("records", [0, 1])
    def test_eval_needs_two_records(self, workspace, tmp_path, capsys, records):
        lines = workspace["dataset"].read_text().splitlines(keepends=True)[:records]
        data = tmp_path / "small.jsonl"
        data.write_text("".join(lines))
        out = tmp_path / "agreement.csv"
        assert run("eval", "--model", workspace["model"], "--input", data, "--out", out) == 1
        assert f"need at least 2 records to evaluate, {data} has {records}" in capsys.readouterr().err
        assert not out.exists()

    def test_number_beyond_float_range_rejects_its_record(self, tmp_path, capsys, caplog):
        huge = "1" + "0" * 400
        data = tmp_path / "d.jsonl"
        data.write_text(
            '{"id": "a", "views": 100, "faves": 10, "features": [1.0, 2.0]}\n'
            f'{{"id": "b", "views": 100, "faves": 10, "features": [1.0, {huge}]}}\n'
            f'{{"id": "c", "views": 100, "faves": 10, "features": [1.0, 2.0], "latent_score": {huge}}}\n'
        )
        out = tmp_path / "scores.csv"
        with caplog.at_level("WARNING"):
            assert run("score", "--input", data, "--out", out) == 0
        assert out.read_text() == "id,score\na,0.5\n"
        assert caplog.messages == [
            "rejected record at line 2 (features): non-finite feature entry",
            "rejected record at line 3 (latent_score): latent_score inf outside [0, 1]",
        ]
        model = tmp_path / "m.json"
        encoder.save(encoder.init([2, 3], seed=1), model)
        frames_out = tmp_path / "frames.csv"
        assert run("video", "--model", model, "--frames", data, "--out", frames_out) == 1
        assert "aespace video: error: line 2: non-finite feature entry" in capsys.readouterr().err
        assert not frames_out.exists()

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_video_non_finite_frame_names_its_line(self, tmp_path, capsys, bad):
        frames = tmp_path / "f.jsonl"
        frames.write_text(
            '{"id": "f0", "features": [1.0, 0.0]}\n'
            f'{{"id": "f1", "features": [{bad}, 0.0]}}\n'
            '{"id": "f2", "features": [1.0, 0.0]}\n'
        )
        model = tmp_path / "m.json"
        encoder.save(encoder.init([2, 3], seed=1), model)
        out = tmp_path / "v.csv"
        assert run("video", "--model", model, "--frames", frames, "--out", out) == 1
        err = capsys.readouterr().err
        assert "aespace video: error: line 2: non-finite feature entry" in err
        assert "model output" not in err
        assert not out.exists()

    def test_video_empty_frames_file(self, workspace, tmp_path, capsys):
        frames = tmp_path / "empty.jsonl"
        frames.write_text("\n")
        out = tmp_path / "v.csv"
        assert run("video", "--model", workspace["model"], "--frames", frames, "--out", out) == 1
        assert f"aespace video: error: no frames in {frames}" in capsys.readouterr().err
        assert not out.exists()

    def test_ids_that_need_quoting_parse_back(self, tmp_path):
        ids = ["a,b", 'q"x', "line\nbreak", "plain"]
        data = tmp_path / "d.jsonl"
        with open(data, "w", encoding="utf-8") as fh:
            for i, rec_id in enumerate(ids):
                fh.write(json.dumps({"id": rec_id, "views": 1000, "faves": 10 ** i,
                                     "features": [float(i), 1.0]}) + "\n")
        model = tmp_path / "m.json"
        encoder.save(encoder.init([2, 3], seed=1), model)

        def rows(command, *flags):
            out = tmp_path / f"{command}.csv"
            assert run(command, *flags, "--out", out) == 0
            with open(out, newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))

        score = rows("score", "--input", data)
        assert [r[0] for r in score[1:]] == ids
        assert all(len(r) == 2 for r in score)
        embed = rows("embed", "--model", model, "--input", data)
        assert [r[0] for r in embed[1:]] == ids
        assert all(len(r) == 4 for r in embed)
        rank = rows("rank", "--model", model, "--input", data)
        assert sorted(r[1] for r in rank[1:]) == sorted(ids)
        assert all(len(r) == 3 for r in rank)
        frames = rows("video", "--model", model, "--frames", data)
        assert [r[0] for r in frames[1:]] == ids
        assert all(len(r) == 4 for r in frames)


class TestSidecar:
    def test_unwritable_sidecar_is_a_runtime_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "s.csv"
        (tmp_path / "s.csv.meta.json").mkdir()
        assert run("score", "--input", workspace["dataset"], "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("aespace score: error: ")
        assert "s.csv.meta.json" in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_no_sidecar_beside_a_pipe(self, workspace, tmp_path):
        regular = tmp_path / "regular.csv"
        assert run("score", "--input", workspace["dataset"], "--out", regular) == 0
        fifo = tmp_path / "s.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        try:
            code = run("score", "--input", workspace["dataset"], "--out", fifo)
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0
        assert received == [regular.read_text()]
        assert not (tmp_path / "s.csv.meta.json").exists()
