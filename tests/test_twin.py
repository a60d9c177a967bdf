"""The binary twin that ``read_blocks`` writes beside a file it has parsed.

A parse that reaches the end of a regular file with every record kept
writes ``<path>.twin``. Blocks read from that twin equal, bit for bit, the
blocks the parse gave. A frames read writes a frames-only twin, which a
dataset read ignores. A twin that does not match its text, or cannot be
read, is ignored and the text is parsed; a twin that cannot or must not be
written changes no block, output or exit code and leaves no file behind.
"""

import json
import logging
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aespace import cli, data_model
from aespace.data_model import ROW_BLOCK, Dataset, read_blocks, save_dataset
from aespace.errors import ParseError

B = ROW_BLOCK
INT64_MAX = 2**63 - 1


def twin_of(path):
    return path.with_name(path.name + data_model.TWIN_SUFFIX)


def frames_only(path):
    """The frames-only flag in the head of the twin of ``path``."""
    return data_model._TWIN_HEAD.unpack_from(twin_of(path).read_bytes())[2]


def names(directory):
    return sorted(p.name for p in directory.iterdir())


def odd_dataset(n, seed=0):
    """n valid records with unicode ids, large counts, edge floats and a mix of latents."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 3))
    features[::7, 0] = -0.0
    features[1::7, 1] = 5e-324
    features[2::7, 2] = -1.7976931348623157e308
    latents = rng.uniform(size=n)
    latents[::3] = np.nan
    latents[1::5] = -0.0
    latents[2::11] = 1.0
    ids = [f"r{i}-é\u0000ø\U0001f600\u0000" if i % 2 else f"r{i}" for i in range(n)]
    views = [INT64_MAX - i if i % 4 == 0 else 100 + i for i in range(n)]
    faves = [1 + i % 100 for i in range(n)]
    return Dataset(ids, views, faves, features, latents)


def assert_same_blocks(got, want, frames):
    assert [len(block) for block in got] == [len(block) for block in want]
    for a, b in zip(got, want):
        assert a.ids == b.ids
        assert all(type(rec_id) is str for rec_id in a.ids)
        assert (a.views, a.faves) == (b.views, b.faves)
        assert all(type(count) is int for count in a.views + a.faves)
        assert type(a.ids) is type(a.views) is type(a.faves) is list
        assert a.features.dtype == np.float64 and a.features.flags.c_contiguous
        assert a.features.shape == b.features.shape
        assert a.features.tobytes() == b.features.tobytes()
        assert a.latent_scores.dtype == b.latent_scores.dtype == np.float64
        assert a.latent_scores.tobytes() == b.latent_scores.tobytes()
        if frames:
            assert (a.views, a.faves, a.latent_scores.size) == ([], [], 0)


def read_from_twin(path, frames, monkeypatch):
    """The blocks of ``path`` read from its twin: no line is parsed."""
    with monkeypatch.context() as patch:
        patch.setattr(data_model, "_parsed_rows", None)  # any parse would fail
        return list(read_blocks(path, frames=frames))


@pytest.mark.parametrize("frames", [False, True], ids=["dataset", "frames"])
@pytest.mark.parametrize("n", [1, 2, 3, B - 1, B, B + 1, B + 2, B + 3, 2 * B + 1, 2 * B + 2, 5000])
def test_twin_blocks_equal_parsed_blocks(tmp_path, monkeypatch, n, frames):
    path = tmp_path / "d.jsonl"
    save_dataset(odd_dataset(n), path)
    assert names(tmp_path) == ["d.jsonl"]
    parsed = list(read_blocks(path, frames=frames))
    assert names(tmp_path) == ["d.jsonl", "d.jsonl.twin"]
    assert frames_only(path) == frames
    assert_same_blocks(read_from_twin(path, frames, monkeypatch), parsed, frames)
    assert sum(len(block) for block in parsed) == n


def test_load_dataset_from_the_twin_is_the_parsed_dataset(tmp_path, monkeypatch):
    path = tmp_path / "d.jsonl"
    save_dataset(odd_dataset(B + 5), path)
    parsed = data_model.load_dataset(path)
    with monkeypatch.context() as patch:
        patch.setattr(data_model, "_parsed_rows", None)
        from_twin = data_model.load_dataset(path)
    assert_same_blocks([from_twin], [parsed], frames=False)


def test_a_full_twin_serves_a_frames_read(tmp_path, monkeypatch):
    path = tmp_path / "d.jsonl"
    save_dataset(odd_dataset(B + 5), path)
    parsed_frames = list(read_blocks(path, frames=True))
    twin_of(path).unlink()
    list(read_blocks(path))
    assert not frames_only(path)
    assert_same_blocks(read_from_twin(path, True, monkeypatch), parsed_frames, frames=True)


def record(rec_id, views, faves, features, latent):
    obj = {"id": rec_id, "views": views, "faves": faves, "features": features}
    if not math.isnan(latent):
        obj["latent_score"] = latent
    return obj


# unicode, surrogates (lone or in pairs) and NULs, trailing ones too
SURROGATE = re.compile("[\ud800-\udfff]")
ids = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]), st.just("\x00")), max_size=6)
counts = st.one_of(st.integers(-3, 2000), st.integers(2**62, 2**65))
numbers = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
latent_values = st.one_of(st.just(math.nan), st.floats(-0.5, 1.5), st.sampled_from([-0.0, 0.0, 1.0]))


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 8))
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(ids, counts, counts, st.lists(numbers, min_size=width,
                                                                 max_size=width), latent_values),
                         min_size=n, max_size=n))
    return Dataset([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows],
                   np.array([r[3] for r in rows], dtype=np.float64).reshape(n, width),
                   np.array([r[4] for r in rows], dtype=np.float64))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dataset=datasets(), frames=st.booleans())
def test_any_dataset_round_trips_exactly_or_gets_no_twin(tmp_path, monkeypatch, dataset, frames):
    path = tmp_path / "d.jsonl"
    twin_of(path).write_bytes(b"an old twin")
    save_dataset(dataset, path)
    assert not twin_of(path).exists()
    lines = path.read_text().splitlines()
    assert lines == [json.dumps(record(*r)) for r in zip(
        dataset.ids, dataset.views, dataset.faves, dataset.features.tolist(),
        dataset.latent_scores.tolist())]
    try:
        parsed = list(read_blocks(path, frames=frames))
    except ParseError:  # a frame with a non-finite feature
        assert frames and not np.isfinite(dataset.features).all()
        assert not twin_of(path).exists()
        return
    kept = [rec_id for block in parsed for rec_id in block.ids]
    keeps_all = len(kept) == len(dataset) > 0
    fits = frames or all(-INT64_MAX - 1 <= c <= INT64_MAX for c in dataset.views + dataset.faves)
    encodable = not any(SURROGATE.search(rec_id) for rec_id in kept)
    assert twin_of(path).exists() == (keeps_all and fits and encodable)
    if twin_of(path).exists():
        assert_same_blocks(read_from_twin(path, frames, monkeypatch), parsed, frames)


@pytest.mark.parametrize("ids, parsed", [
    (["\ud83d\ude00", "\U0001f600"], ["\U0001f600"]),
    (["\U0001f600", "\ud83d\ude00"], ["\U0001f600"]),
    (["a\ud800", "b\udfff"], ["a\ud800", "b\udfff"]),
], ids=["pair_then_joined", "joined_then_pair", "lone"])
def test_an_id_with_a_surrogate_gets_no_twin(tmp_path, ids, parsed):
    # the text escapes each surrogate alone and a parse joins an escaped pair into one character,
    # so the pair repeats the joined id; UTF-8 has no code for a lone surrogate
    path = tmp_path / "d.jsonl"
    n = len(ids)
    save_dataset(Dataset(ids, [10] * n, [2] * n, np.ones((n, 2)), np.full(n, np.nan)), path)
    assert data_model.load_dataset(path).ids == parsed
    assert names(tmp_path) == ["d.jsonl"]


def test_an_id_of_a_surrogate_pair_reads_from_the_twin_as_parsed(tmp_path, monkeypatch):
    path = tmp_path / "d.jsonl"
    save_dataset(Dataset(["a", "\ud83d\ude00"], [10] * 2, [2] * 2, np.ones((2, 2)), np.full(2, np.nan)), path)
    parsed = list(read_blocks(path))
    assert parsed[0].ids == ["a", "\U0001f600"]
    assert_same_blocks(read_from_twin(path, False, monkeypatch), parsed, frames=False)


# --- fallback: a twin that does not match is ignored -------------------------

@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("twin_model")
    data = root / "train.jsonl"
    assert cli.main(["synth", "--n", "60", "--din", "4", "--seed", "5", "--out", str(data)]) == 0
    assert cli.main(["train", "--input", str(data), "--embed-dim", "3", "--hidden", "5",
                     "--steps", "40", "--batch", "8", "--seed", "2",
                     "--model-out", str(root / "m.json"), "--log-out", str(root / "log.csv")]) == 0
    return root / "m.json"


def command_outputs(data, model, out, before=lambda: None):
    """Each reading command's exit code and output bytes (None when it wrote none) on ``data``.

    ``before`` runs before each command.
    """
    out.mkdir()
    argvs = {
        "score": ["score", "--input", data],
        "sample": ["sample", "--input", data, "--count", "50", "--seed", "1"],
        "train": ["train", "--input", data, "--steps", "20", "--batch", "4", "--hidden", "4",
                  "--embed-dim", "2", "--seed", "1", "--log-out", out / "train_log.csv"],
        "embed": ["embed", "--model", model, "--input", data],
        "rank": ["rank", "--model", model, "--input", data],
        "eval": ["eval", "--model", model, "--input", data],
        "video": ["video", "--model", model, "--frames", data],
    }
    results = {}
    for name, argv in argvs.items():
        target = out / f"{name}.out"
        flag = "--model-out" if name == "train" else "--out"
        before()
        code = cli.main([str(a) for a in argv] + [flag, str(target)])
        results[name] = (code, target.read_bytes() if target.exists() else None)
    return results


def flip_last_byte(data):
    return data[:-1] + bytes([data[-1] ^ 1])


def wrong_version(data):
    magic, version, *rest = data_model._TWIN_HEAD.unpack_from(data)
    return data_model._TWIN_HEAD.pack(magic, version + 1, *rest) + data[data_model._TWIN_HEAD.size:]


def flip_frames_flag(data):
    magic, version, flag, *digests = data_model._TWIN_HEAD.unpack_from(data)
    return data_model._TWIN_HEAD.pack(magic, version, not flag, *digests) + data[data_model._TWIN_HEAD.size:]


@pytest.mark.parametrize("change", [
    "text_one_byte", "text_bad_line", "twin_truncated", "twin_payload_flipped", "twin_version",
    "twin_frames_flag"])
def test_a_twin_that_does_not_match_is_ignored(tmp_path, capsys, model, change):
    data = tmp_path / "data.jsonl"
    assert cli.main(["synth", "--n", str(B + 40), "--din", "4", "--seed", "9", "--out", str(data)]) == 0
    list(read_blocks(data, frames=change == "twin_frames_flag"))
    text, twin = data.read_bytes(), twin_of(data).read_bytes()
    if change == "text_one_byte":
        at = text.index(b".", text.index(b'"features": [')) + 1  # the first feature's first decimal
        text = text[:at] + (b"1" if text[at:at + 1] != b"1" else b"2") + text[at + 1:]
    elif change == "text_bad_line":
        text += b'{"id": \n'
    elif change == "twin_truncated":
        twin = twin[:-9]
    elif change == "twin_payload_flipped":
        twin = flip_last_byte(twin)
    elif change == "twin_version":
        twin = wrong_version(twin)
    else:  # a frames-only twin that claims to be full: the twin's digest covers its head
        twin = flip_frames_flag(twin)
    data.write_bytes(text)
    twin_of(data).write_bytes(twin)
    assert data_model._open_twin(data, False) is None
    assert data_model._open_twin(data, True) is None
    capsys.readouterr()
    # each command finds the twin that does not match, or none
    with_twin = command_outputs(data, model, tmp_path / "with", lambda: twin_of(data).write_bytes(twin))
    err_with = capsys.readouterr().err
    if change == "text_bad_line":
        assert twin_of(data).read_bytes() == twin  # a read that stops early leaves the twin as it was
    without = command_outputs(data, model, tmp_path / "without", lambda: twin_of(data).unlink(missing_ok=True))
    assert with_twin == without
    assert err_with == capsys.readouterr().err
    if change == "text_bad_line":
        assert {code for code, _ in with_twin.values()} == {1}
        assert f"line {B + 41}: invalid JSON" in err_with


def test_a_matching_twin_gives_the_parsed_outputs(tmp_path, capsys, model):
    data = tmp_path / "data.jsonl"
    assert cli.main(["synth", "--n", str(B + 40), "--din", "4", "--seed", "9", "--out", str(data)]) == 0
    assert data_model._open_twin(data, False) is None
    with_twin = command_outputs(data, model, tmp_path / "with")  # score's parse writes the twin
    twin, _ = data_model._open_twin(data, False)
    twin.close()
    without = command_outputs(data, model, tmp_path / "without", lambda: twin_of(data).unlink(missing_ok=True))
    assert with_twin == without
    assert {code for code, _ in with_twin.values()} == {0}
    capsys.readouterr()


def test_a_frames_only_twin_serves_no_dataset_read(tmp_path, monkeypatch, capsys, model):
    data = tmp_path / "data.jsonl"
    assert cli.main(["synth", "--n", str(B + 40), "--din", "4", "--seed", "9", "--out", str(data)]) == 0
    parses = []
    check = data_model._check_record
    monkeypatch.setattr(data_model, "_check_record", lambda *args: parses.append(1) or check(*args))

    def video_then(argv):
        """Parses of a ``video`` run that leaves a frames-only twin, then of ``argv``, and the twin's flag."""
        twin_of(data).unlink(missing_ok=True)
        assert cli.main(["video", "--model", str(model), "--frames", str(data),
                         "--out", str(tmp_path / "v.csv")]) == 0
        assert frames_only(data)
        parses.clear()
        argv()
        return len(parses), frames_only(data)

    out = tmp_path / "s.csv"
    assert video_then(lambda: cli.main(["score", "--input", str(data), "--out", str(out)])) == (B + 40, False)
    from_score_parse = out.read_bytes()
    assert video_then(lambda: data_model.load_dataset(data)) == (B + 40, False)
    parses.clear()
    assert cli.main(["score", "--input", str(data), "--out", str(out)]) == 0
    assert (len(parses), out.read_bytes()) == (0, from_score_parse)
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_synth_into_a_pipe_writes_no_twin_and_removes_an_old_one(tmp_path):
    regular = tmp_path / "regular.jsonl"
    assert cli.main(["synth", "--n", "20", "--din", "3", "--out", str(regular)]) == 0
    list(read_blocks(regular))
    fifo = tmp_path / "d.jsonl"
    os.mkfifo(fifo)
    twin_of(fifo).write_bytes(twin_of(regular).read_bytes())
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code = cli.main(["synth", "--n", "20", "--din", "3", "--out", str(fifo)])
    finally:
        reader.join(timeout=30)
    assert code == 0
    assert received == [regular.read_bytes()]
    assert not twin_of(fifo).exists()


@pytest.mark.parametrize("first, again", [(0, 3), (5, 2 * B + 3), (2 * B + 4, 2 * B + 5)],
                         ids=["one_block", "across_blocks", "last_block"])
def test_a_repeated_id_gets_no_twin(tmp_path, caplog, first, again):
    path = tmp_path / "d.jsonl"
    repeated = odd_dataset(2 * B + 6)
    repeated.ids[again] = repeated.ids[first]  # the reader skips the second record
    save_dataset(repeated, path)
    for _ in range(2):  # each read parses the file again and warns again
        caplog.clear()
        assert len(data_model.load_dataset(path)) == 2 * B + 5
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            f"rejected record at line {again + 1} (id): duplicate id {repeated.ids[first]!r}"]
        assert names(tmp_path) == ["d.jsonl"]


def test_reading_a_twin_loads_no_openssl(tmp_path):
    # hashlib would map OpenSSL's libcrypto into every command that writes or reads a twin
    data = tmp_path / "d.jsonl"
    save_dataset(odd_dataset(B + 5), data)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys; from aespace import data_model; "
            "sys.argv[2] == 'twin' and setattr(data_model, '_parsed_rows', None); "
            "rows = sum(map(len, data_model.read_blocks(sys.argv[1]))); "
            "print(rows, '_hashlib' in sys.modules)")
    for read in ("parse", "twin"):
        out = subprocess.run([sys.executable, "-c", code, str(data), read], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == [str(B + 5), "False"]
        assert twin_of(data).exists()


def test_synth_lists_no_twin_among_its_outputs(tmp_path):
    data = tmp_path / "d.jsonl"
    twin_of(data).write_bytes(b"an old twin")
    assert cli.main(["synth", "--n", "5", "--din", "2", "--out", str(data)]) == 0
    with open(f"{data}.meta.json", encoding="utf-8") as fh:
        outputs = json.load(fh)["outputs"]
    assert outputs == [str(data), f"{data}.sidecar.json"]
    assert not twin_of(data).exists()
    assert cli.main(["score", "--input", str(data), "--out", str(tmp_path / "s.csv")]) == 0
    assert twin_of(data).exists()


# --- a twin that cannot or must not be written changes nothing ---------------

def test_a_twin_path_that_is_a_directory_changes_no_output(tmp_path, capsys, model):
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    for d in (blocked, free):
        d.mkdir()
        assert cli.main(["synth", "--n", str(B + 40), "--din", "4", "--seed", "9",
                         "--out", str(d / "data.jsonl")]) == 0
    twin_of(blocked / "data.jsonl").mkdir()
    assert command_outputs(blocked / "data.jsonl", model, tmp_path / "out_blocked") == \
        command_outputs(free / "data.jsonl", model, tmp_path / "out_free")
    assert names(blocked) == names(free) == [
        "data.jsonl", "data.jsonl.meta.json", "data.jsonl.sidecar.json", "data.jsonl.twin"]
    assert list(twin_of(blocked / "data.jsonl").iterdir()) == []
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("frames", [False, True], ids=["dataset", "frames"])
@pytest.mark.parametrize("kind", ["fifo", "symlink"])
def test_reading_a_pipe_or_a_symlink_writes_no_twin(tmp_path, frames, kind):
    # a pipe cannot be read twice; a symlink may be /dev/stdin, whose twin would land in /dev
    regular = tmp_path / "regular.jsonl"
    save_dataset(odd_dataset(B + 5), regular)
    path = tmp_path / "d.jsonl"
    if kind == "symlink":
        path.symlink_to(regular)
        got = list(read_blocks(path, frames=frames))
    else:
        os.mkfifo(path)
        writer = threading.Thread(target=lambda: path.write_bytes(regular.read_bytes()), daemon=True)
        writer.start()
        try:
            got = list(read_blocks(path, frames=frames))
        finally:
            writer.join(timeout=30)
    assert names(tmp_path) == ["d.jsonl", "regular.jsonl"]
    assert_same_blocks(got, list(read_blocks(regular, frames=frames)), frames)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_at_the_twin_path_is_not_waited_on_but_replaced(tmp_path, monkeypatch):
    # opening a FIFO for reading waits for a writer, which may never come
    path, regular = tmp_path / "d.jsonl", tmp_path / "regular" / "d.jsonl"
    regular.parent.mkdir()
    for p in (path, regular):
        save_dataset(odd_dataset(10), p)
    os.mkfifo(twin_of(path))
    got = []
    reader = threading.Thread(target=lambda: got.append(list(read_blocks(path))), daemon=True)
    reader.start()
    reader.join(timeout=10)
    assert not reader.is_alive(), "the read is waiting on the FIFO"
    parsed = list(read_blocks(regular))
    assert_same_blocks(got[0], parsed, frames=False)
    assert twin_of(path).is_file()
    assert_same_blocks(read_from_twin(path, False, monkeypatch), parsed, frames=False)


def test_a_read_closed_after_its_first_block_leaves_no_file(tmp_path):
    path = tmp_path / "d.jsonl"
    save_dataset(odd_dataset(2 * B + 5), path)
    blocks = read_blocks(path)
    first = next(blocks)
    assert len(names(tmp_path)) == 2  # the twin's temporary file
    blocks.close()
    assert names(tmp_path) == ["d.jsonl"]
    whole = list(read_blocks(path))
    assert_same_blocks([first], whole[:1], frames=False)
    assert names(tmp_path) == ["d.jsonl", "d.jsonl.twin"]


@pytest.mark.parametrize("frames", [False, True], ids=["dataset", "frames"])
def test_a_bad_line_after_the_first_block_leaves_no_file(tmp_path, frames):
    path = tmp_path / "d.jsonl"
    save_dataset(odd_dataset(B + 100), path)
    whole = list(read_blocks(path, frames=frames))
    twin_of(path).unlink()
    with path.open("a") as fh:
        fh.write('{"id": \n')
    got = []
    with pytest.raises(ParseError, match=f"line {B + 101}: invalid JSON"):
        for block in read_blocks(path, frames=frames):
            got.append(block)
    assert_same_blocks(got, whole[:1], frames)
    assert names(tmp_path) == ["d.jsonl"]


def test_a_rejected_record_is_logged_on_every_read(tmp_path, caplog, capsys, model):
    data = tmp_path / "data.jsonl"
    assert cli.main(["synth", "--n", str(B + 40), "--din", "4", "--seed", "9", "--out", str(data)]) == 0
    lines = data.read_text().splitlines(keepends=True)
    obj = json.loads(lines[B + 3])
    obj["faves"] = obj["views"] + 1
    lines[B + 3] = json.dumps(obj) + "\n"
    data.write_text("".join(lines))
    warning = f"rejected record at line {B + 4} (faves): faves ({obj['faves']}) exceeds views ({obj['views']})"
    runs = []
    for run in range(2):
        caplog.clear()
        runs.append(command_outputs(data, model, tmp_path / f"run{run}"))
        # each of the six dataset reads parses and warns; video's frames read keeps the record
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [warning] * 6
        assert frames_only(data)
    assert runs[0] == runs[1]
    assert {code for code, _ in runs[0].values()} == {0}
    assert not [name for name in names(tmp_path) if name.endswith(".tmp")]
    capsys.readouterr()
