import csv
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from aespace import cli, data_model, encoder, ranker, trainer, video


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # a numpy before 1.25 reports no build dependencies
        return ""


BLAS = _blas_name()


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
        ("train", "--margin", "inf"), ("train", "--lr", "inf"), ("video", "--r", "inf"),
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

    @pytest.mark.parametrize("argv, message", [
        (("train", "--hidden", "8,x"), "expected comma-separated integers, got '8,x'"),
        (("eval", "--thresholds", "0.1,abc"), "expected comma-separated numbers, got '0.1,abc'"),
        (("eval", "--thresholds", "0.5,1.5"), "thresholds must lie strictly in (0, 1), got 1.5"),
        (("sample", "--count", "-1"), "--count must be >= 0, got -1"),
    ], ids=["hidden_text", "thresholds_text", "thresholds_range", "negative_count"])
    def test_bad_flag_value_is_usage_error(self, workspace, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        argv += {
            "train": ("--input", workspace["dataset"], "--steps", "1", "--model-out", out,
                      "--log-out", tmp_path / "log.csv"),
            "eval": ("--model", workspace["model"], "--input", workspace["dataset"], "--out", out),
            "sample": ("--input", workspace["dataset"], "--out", out),
        }[argv[0]]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("log_out", ["same", "absolute", "symlink", "sidecar"])
    def test_log_over_model_is_usage_error(self, workspace, tmp_path, monkeypatch, capsys,
                                          log_out):
        monkeypatch.chdir(tmp_path)
        if log_out == "symlink":
            (tmp_path / "link.json").symlink_to("m.json")
        log = {"same": "m.json", "absolute": tmp_path / "m.json", "symlink": "link.json",
               "sidecar": "m.json.meta.json"}[log_out]
        code = run("train", "--input", workspace["dataset"], "--steps", "1",
                   "--model-out", "m.json", "--log-out", log)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        if log_out == "sidecar":
            assert "--log-out names the model's sidecar: m.json.meta.json" in err
        else:
            assert "--model-out and --log-out name the same file: m.json" in err
        left = ["link.json"] if log_out == "symlink" else []
        assert sorted(p.name for p in tmp_path.iterdir()) == left

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

    def test_train_starvation_is_runtime_error(self, tmp_path, capsys):
        # equal scores: no triplet is ever accepted, so the default budget runs out in step 1
        path = tmp_path / "flat.jsonl"
        with open(path, "w") as fh:
            for i in range(4):
                fh.write(json.dumps({"id": f"r{i}", "views": 1000, "faves": 31,
                                     "features": [0.0, 0.0]}) + "\n")
        code = run("train", "--input", path, "--steps", "5",
                   "--model-out", tmp_path / "m.json", "--log-out", tmp_path / "log.csv")
        assert code == 1
        assert "no acceptable triplet" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["flat.jsonl"]

    def test_train_needs_three_records(self, tmp_path, capsys):
        path = tmp_path / "two.jsonl"
        with open(path, "w") as fh:
            for i in range(2):
                fh.write(json.dumps({"id": f"r{i}", "views": 1000, "faves": 10 + i,
                                     "features": [0.0, 1.0]}) + "\n")
        code = run("train", "--input", path, "--steps", "5",
                   "--model-out", tmp_path / "m.json", "--log-out", tmp_path / "log.csv")
        assert code == 1
        assert "aespace train: error: need at least 3 records, got 2" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["two.jsonl"]

    @pytest.mark.parametrize("command", ["embed", "rank", "eval", "video"])
    def test_dimension_mismatch(self, workspace, tmp_path, capsys, command):
        other = tmp_path / "wide.jsonl"
        assert run("synth", "--n", "10", "--din", "6", "--out", other) == 0
        out = tmp_path / "out.csv"
        data_flag = "--frames" if command == "video" else "--input"
        code = run(command, "--model", workspace["model"], data_flag, other, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert f"aespace {command}: error: model expects 4 features, input has 6" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, header", [
        ("embed", "id,phi0,phi1,phi2,phi3"), ("rank", "rank,id,score"),
    ])
    def test_empty_dataset_writes_header_only(self, workspace, tmp_path, capsys, command,
                                              header):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        out = tmp_path / "out.csv"
        assert run(command, "--model", workspace["model"], "--input", data, "--out", out) == 0
        assert out.read_text() == header + "\n"
        assert capsys.readouterr().err == ""

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


    @pytest.mark.parametrize("command", ["synth", "sample", "train"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_is_usage_error(self, workspace, tmp_path, monkeypatch, capsys,
                                          command, source):
        out = tmp_path / "out"
        argv = {
            "synth": ["--n", "20", "--din", "3", "--out", out],
            "sample": ["--input", workspace["dataset"], "--out", out],
            "train": ["--input", workspace["dataset"], "--steps", "1",
                      "--model-out", out, "--log-out", tmp_path / "log.csv"],
        }[command]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, "-5")
        assert run(command, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert ("--seed must be >= 0, got -1" if source == "flag"
                else f"{cli.SEED_ENV_VAR} must be >= 0, got -5") in err
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.skipif("openblas" not in BLAS, reason="OPENBLAS_NUM_THREADS sets no thread count here")
    def test_blas_threads_do_not_change_outputs(self, tmp_path):
        # products and bias sums run in BLAS; at 1536 rows OpenBLAS splits most of
        # them, the bias sums included, over 2 threads, which must not move a bit
        data = tmp_path / "data.jsonl"
        assert run("synth", "--n", "500", "--din", "16", "--seed", "3", "--out", data) == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        main = "import sys; from aespace.cli import main; sys.exit(main(sys.argv[1:]))"
        outputs = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / threads
            out.mkdir()
            for argv in (
                ("train", "--input", data, "--steps", "300", "--batch", "512", "--seed", "7",
                 "--model-out", out / "model.json", "--log-out", out / "log.csv"),
                ("embed", "--model", out / "model.json", "--input", data, "--out", out / "emb.csv"),
            ):
                subprocess.run([sys.executable, "-c", main, *map(str, argv)], env=env, check=True)
            outputs.append([(out / f).read_bytes() for f in ("model.json", "log.csv", "emb.csv")])
        assert outputs[0] == outputs[1]


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


class TestRowBlocks:
    """A collection one row past two row blocks gives the outputs of one pass over every row."""

    @pytest.fixture(scope="class")
    def collection(self, workspace, tmp_path_factory):
        path = tmp_path_factory.mktemp("blocks") / "data.jsonl"
        assert run("synth", "--n", 2 * data_model.ROW_BLOCK + 1, "--din", "4", "--noise", "0.1",
                   "--seed", "6", "--out", path) == 0
        dataset = data_model.load_dataset(path)
        phi = encoder._forward_pass(encoder.load(workspace["model"]), dataset.features)[-1]
        return path, dataset, phi

    def output(self, workspace, tmp_path, collection, command):
        out = tmp_path / f"{command}.csv"
        input_flag = "--frames" if command == "video" else "--input"
        assert run(command, "--model", workspace["model"], input_flag, collection[0],
                   "--out", out) == 0
        return out.read_text().splitlines()[1:]

    def test_embed(self, workspace, tmp_path, collection):
        _, dataset, phi = collection
        assert self.output(workspace, tmp_path, collection, "embed") == [
            ",".join([rec_id, *map(repr, row)]) for rec_id, row in zip(dataset.ids, phi.tolist())]

    def test_rank(self, workspace, tmp_path, collection):
        _, dataset, phi = collection
        norms = ranker.projection_score(phi).tolist()
        order = sorted(range(len(norms)), key=lambda i: (-norms[i], dataset.ids[i]))
        assert self.output(workspace, tmp_path, collection, "rank") == [
            f"{rank},{dataset.ids[i]},{norms[i]!r}" for rank, i in enumerate(order, start=1)]

    def test_eval(self, workspace, tmp_path, collection):
        _, dataset, phi = collection
        rows = ranker.pairwise_agreement(ranker.projection_score(phi), dataset.scores(),
                                         [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert self.output(workspace, tmp_path, collection, "eval") == [
            f"{row.delta!r},{row.pairs},{row.agreement!r}" for row in rows]

    def test_video_raw_scores(self, workspace, tmp_path, collection):
        raw = [line.split(",")[1] for line in self.output(workspace, tmp_path, collection, "video")]
        assert raw == [repr(v) for v in ranker.projection_score(collection[2]).tolist()]


B = data_model.ROW_BLOCK


class TestStreamEdges:
    """Each command that reads its input a block at a time writes, byte for byte, what
    whole-matrix arithmetic gives, at every block edge. With B + 1 records, cutting
    B rows and then 1 would send a lone row through BLAS's matrix-vector kernel."""

    @pytest.fixture(scope="class", params=[0, 1, 2, B - 1, B, B + 1, 2 * B + 1])
    def case(self, request, workspace, tmp_path_factory):
        path = tmp_path_factory.mktemp("edges") / "data.jsonl"
        if request.param:
            assert run("synth", "--n", request.param, "--din", "4", "--noise", "0.1",
                       "--seed", "8", "--out", path) == 0
        else:
            path.write_text("")
        return path, self.expected(workspace["model"], path)

    @staticmethod
    def expected(model, path):
        """Each command's output lines, or its error text, from one pass over the whole matrix."""
        dataset = data_model.load_dataset(path)
        ids, n = dataset.ids, len(dataset)
        phi = encoder._forward_pass(encoder.load(model), dataset.features)[-1] if n else np.empty((0, 4))
        norms = ranker.projection_score(phi).tolist()
        rank = sorted(range(n), key=lambda i: (-norms[i], ids[i]))
        want = {
            "score": ["id,score", *(f"{i},{s!r}" for i, s in zip(ids, dataset.scores().tolist()))],
            "embed": ["id,phi0,phi1,phi2,phi3",
                      *(",".join([i, *map(repr, row)]) for i, row in zip(ids, phi.tolist()))],
            "rank": ["rank,id,score", *(f"{r},{ids[i]},{norms[i]!r}" for r, i in enumerate(rank, 1))],
            "eval": f"aespace eval: error: need at least 2 records to evaluate, got {n}",
            "video": f"aespace video: error: no frames in {path}",
        }
        if n >= 2:
            rows = ranker.pairwise_agreement(norms, dataset.scores(), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
            want["eval"] = ["delta,pairs,agreement",
                            *(f"{row.delta!r},{row.pairs},{row.agreement!r}" for row in rows)]
        if n:
            smoothed = video.kalman_smooth(norms)
            peaks = set(video.detect_peaks(smoothed))
            want["video"] = ["frame,raw_score,smoothed_score,is_peak", *(
                f"{i},{r!r},{s!r},{int(k in peaks)}"
                for k, (i, r, s) in enumerate(zip(ids, norms, smoothed)))]
        return want

    @pytest.mark.parametrize("command", ["score", "embed", "rank", "eval", "video"])
    def test_matches_whole_matrix(self, workspace, tmp_path, capsys, case, command):
        path, expected = case
        out = tmp_path / "out.csv"
        model = () if command == "score" else ("--model", workspace["model"])
        input_flag = "--frames" if command == "video" else "--input"
        code = run(command, *model, input_flag, path, "--out", out)
        want = expected[command]
        if isinstance(want, str):
            assert (code, capsys.readouterr().err.splitlines()[-1]) == (1, want)
            assert not out.exists()
        else:
            assert code == 0
            assert out.read_bytes() == "".join(line + "\n" for line in want).encode()


class TestStreamMemory:
    """``video`` keeps ids and norms and ``eval`` norms and scores, not features or embeddings."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stream") / "model.json"
        encoder.save(encoder.init([16, 64, 32, 16], seed=7), path)
        return path

    @staticmethod
    def traced_peak(*argv):
        tracemalloc.start()
        try:
            code = run(*argv)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_video_holds_no_features_or_embeddings(self, tmp_path, model):
        # 5.1 MB each of features and embeddings: a 14.4 MB peak while both were held
        frames = tmp_path / "frames.jsonl"
        rows = np.random.default_rng(60).normal(size=(40_000, 16)).tolist()
        frames.write_text("".join(
            json.dumps({"id": f"frame-{t:06d}", "features": row}) + "\n" for t, row in enumerate(rows)))
        code, peak = self.traced_peak("video", "--model", model, "--frames", frames,
                                      "--out", tmp_path / "v.csv")
        assert code == 0
        assert peak < 10e6

    @pytest.mark.parametrize("twin", ["present", "deleted"])
    def test_eval_holds_no_features_or_embeddings(self, tmp_path, model, twin):
        # 6.4 MB each of features and embeddings: a 20.8 MB peak while both were held;
        # one threshold keeps the agreement sweep, slow under tracing, to one pass.
        # Without its twin the file is parsed, so both reading paths are bounded.
        data = tmp_path / "data.jsonl"
        assert run("synth", "--n", "50000", "--din", "16", "--seed", "7", "--out", data) == 0
        if twin == "deleted":
            os.unlink(f"{data}{data_model.TWIN_SUFFIX}")
        code, peak = self.traced_peak("eval", "--model", model, "--input", data,
                                      "--thresholds", "0.5", "--out", tmp_path / "a.csv")
        assert code == 0
        assert peak < 10e6


class TestStreamErrors:
    @pytest.fixture(scope="class")
    def identity_model(self, tmp_path_factory):
        params = encoder.init([4, 4], seed=0)
        params.weights[0][...] = np.eye(4)
        params.biases[0][...] = 0.0
        path = tmp_path_factory.mktemp("identity") / "model.json"
        encoder.save(params, path)
        return path

    @pytest.mark.parametrize("command", ["embed", "rank", "eval", "video"])
    def test_non_finite_rows_are_counted_over_the_whole_file(self, tmp_path, capsys,
                                                              identity_model, command):
        data = tmp_path / "data.jsonl"
        assert run("synth", "--n", 2 * B + 1, "--din", "4", "--seed", "9", "--out", data) == 0
        records = [json.loads(line) for line in data.read_text().splitlines()]
        for i in (700, B + 500):  # one in each of the first two blocks; the norm overflows
            records[i]["features"] = [1e200, 0.0, 0.0, 0.0]
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out.csv"
        input_flag = "--frames" if command == "video" else "--input"
        assert run(command, "--model", identity_model, input_flag, data, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"aespace {command}: error: model output is not finite for 2 of {2 * B + 1} "
            "input(s) (first: input 700)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "data.jsonl.meta.json",
                                                              "data.jsonl.sidecar.json",
                                                              "data.jsonl.twin"]

    @pytest.mark.parametrize("command", ["embed", "video"])
    def test_bad_line_after_the_first_block_leaves_no_output(self, workspace, tmp_path, capsys,
                                                              command):
        # embed has written the first block's rows to its temporary file by then
        data = tmp_path / "data.jsonl"
        assert run("synth", "--n", B + 100, "--din", "4", "--seed", "9", "--out", data) == 0
        with data.open("a") as fh:
            fh.write('{"id": \n')
        out = tmp_path / "out.csv"
        input_flag = "--frames" if command == "video" else "--input"
        assert run(command, "--model", workspace["model"], input_flag, data, "--out", out) == 1
        assert capsys.readouterr().err.startswith(
            f"aespace {command}: error: line {B + 101}: invalid JSON")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "data.jsonl.meta.json",
                                                              "data.jsonl.sidecar.json",
                                                              "data.jsonl.twin"]

    def test_width_mismatch_is_reported_at_the_first_block(self, workspace, tmp_path, capsys):
        # the whole file is no longer read first, so a later bad line does not win
        data = tmp_path / "wide.jsonl"
        assert run("synth", "--n", B + 100, "--din", "6", "--seed", "9", "--out", data) == 0
        with data.open("a") as fh:
            fh.write('{"id": \n')
        assert run("rank", "--model", workspace["model"], "--input", data,
                   "--out", tmp_path / "r.csv") == 1
        assert "aespace rank: error: model expects 4 features, input has 6" in capsys.readouterr().err


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

    @pytest.mark.parametrize("weights, biases", [
        ([[[1, 2, 3], [4, 5, 6]]], [[0, 0, 0]]),
        ([[1, 2, 3, 4, 5, 6], [7]], [[0, 0, 0]]),
        ([["1", 2, 3, 4, 5, 6]], [[0, 0, 0]]),
        ([[1, 2, 3, 4, 5, 6]], [[0, True, 0]]),
    ], ids=["nested", "extra_layer", "string", "bool"])
    def test_rank_rejects_malformed_weights(self, tmp_path, capsys, weights, biases):
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"id": "r0", "views": 10, "faves": 2, "features": [0.5, 0.5]}) + "\n")
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(
            {"version": 1, "layer_dims": [2, 3], "weights": weights, "biases": biases}))
        out = tmp_path / "rank.csv"
        assert run("rank", "--model", model, "--input", data, "--out", out) == 1
        assert f"aespace rank: error: model file {model}" in capsys.readouterr().err
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
        assert f"need at least 2 records to evaluate, got {records}" in capsys.readouterr().err
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

    def test_non_utf8_dataset_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_bytes(b'{"id": "a", "views": 100, "faves": 10, "features": [1.0, 2.0]}\n'
                         b'{"id": "\xff", "views": 100, "faves": 10, "features": [1.0, 2.0]}\n')
        out = tmp_path / "scores.csv"
        assert run("score", "--input", data, "--out", out) == 1
        err = capsys.readouterr().err
        assert "aespace score: error: line 2: not UTF-8 text" in err
        assert "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_synth_into_a_pipe_writes_no_sidecar(self, tmp_path):
        regular = tmp_path / "regular.jsonl"
        assert run("synth", "--n", "20", "--din", "3", "--out", regular) == 0
        fifo = tmp_path / "d.jsonl"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        try:
            code = run("synth", "--n", "20", "--din", "3", "--out", fifo)
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0
        assert received == [regular.read_text()]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "d.jsonl", "regular.jsonl", "regular.jsonl.meta.json", "regular.jsonl.sidecar.json",
            "regular.jsonl.twin"]
