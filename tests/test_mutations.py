"""Seeded mutations of dataset, twin, frame and model files never crash ``cli.main``.

Each case mutates one input file of one command, or the binary twin that
lies beside its dataset, with byte flips, cuts, splices, inserted tokens
(``1e999``, ``NaN``, a ``\\xff`` byte, brackets, 30-digit integers) and
numbers swapped for extreme ones, runs the command, and asserts that no
exception escaped ``main`` and that the exit code is 0, 1 or 2. Numeric
warnings on extreme values are not errors for a user, so they are ignored
here.
"""

import random
import re

import pytest

from aespace import cli, data_model

CASES_PER_COMMAND = 50
TOKENS = [b"1e999", b"-1e999", b"NaN", b"\xff", b"[", b"]", b"{", b"}", b"[[", b"]]",
          b"123456789012345678901234567890", b"-123456789012345678901234567890"]
# a swapped number keeps the file valid JSON more often than a raw edit
NUMBERS = [b"1e308", b"-1e308", b"1e999", b"NaN", b"0", b"-0.0", b"5e-324", b"1e-320",
           b"123456789012345678901234567890", b"true", b"null", b"\"1\""]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e-?\d+)?")
# a twin is found beside its dataset by name
FILES = {"data": "data.jsonl", "twin": f"data.jsonl{data_model.TWIN_SUFFIX}"}


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        kind = rng.choice(("flip", "cut", "splice", "insert", "number", "number"))
        if kind == "flip" and data:
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
        elif kind == "cut":
            data = data[:at] + data[at + rng.randint(1, 40):]
        elif kind == "splice":
            start = rng.randrange(len(data) + 1)
            data = data[:at] + data[start:start + rng.randint(1, 80)] + data[at:]
        elif kind == "insert":
            data = data[:at] + rng.choice(TOKENS) + data[at:]
        else:
            spans = [m.span() for m in NUMBER.finditer(data)]
            if spans:
                start, end = rng.choice(spans)
                data = data[:start] + rng.choice(NUMBERS) + data[end:]
    return data


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A small dataset and its twin, frames without views and faves, and a model trained on the dataset.

    The twin is the one ``train``'s read of the dataset writes.
    """
    root = tmp_path_factory.mktemp("mutations")
    data, model = root / "data.jsonl", root / "model.json"
    assert cli.main(["synth", "--n", "12", "--din", "3", "--seed", "4", "--out", str(data)]) == 0
    assert not (root / FILES["twin"]).exists()
    assert cli.main(["train", "--input", str(data), "--steps", "10", "--batch", "4",
                     "--hidden", "4", "--embed-dim", "2", "--seed", "4",
                     "--model-out", str(model), "--log-out", str(root / "log.csv")]) == 0
    frames = b"".join(
        b'{"id": "f%d", "features": [%d.5, -0.25, 0.125]}\n' % (i, i % 3) for i in range(20))
    return {"data": data.read_bytes(), "twin": (root / FILES["twin"]).read_bytes(),
            "model": model.read_bytes(), "frames": frames}


def _argv(command, paths, out):
    if command == "score":
        return ["score", "--input", paths["data"], "--out", out]
    if command == "sample":
        return ["sample", "--input", paths["data"], "--count", "20", "--max-proposals", "500",
                "--seed", "1", "--out", out]
    if command == "train":
        return ["train", "--input", paths["data"], "--steps", "20", "--batch", "4",
                "--hidden", "4", "--embed-dim", "2", "--seed", "1",
                "--model-out", out, "--log-out", f"{out}.log.csv"]
    if command == "video":
        return ["video", "--model", paths["model"], "--frames", paths["frames"], "--out", out]
    return [command, "--model", paths["model"], "--input", paths["data"], "--out", out]


# the files each command reads, any of which a case may mutate
INPUTS = {"score": ("data",), "sample": ("data",), "train": ("data",),
          "embed": ("data", "model"), "rank": ("data", "model"), "eval": ("data", "model"),
          "video": ("frames", "model")}
# the commands whose dataset lies beside its twin
TWIN_READERS = [command for command, names in INPUTS.items() if "data" in names]
TWIN_CASES_PER_COMMAND = 20


def _run_mutated(tmp_path, originals, command, case, name, rng):
    """Run ``command`` on its inputs (and the dataset's twin), ``name`` mutated; assert a clean exit."""
    paths = {}
    for each in INPUTS[command] + (("twin",) if command in TWIN_READERS else ()):
        path = tmp_path / f"{case}-{FILES.get(each, each)}"
        path.write_bytes(originals[each])
        paths[each] = str(path)
    with open(paths[name], "wb") as fh:
        fh.write(mutate(originals[name], rng))
    argv = _argv(command, paths, str(tmp_path / f"{case}-out.csv"))
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # any escape is the failure under test
        raise AssertionError(f"case {command}-{case} ({name} mutated) escaped main") from exc
    assert code in (0, 1, 2), f"case {command}-{case} ({name} mutated) exited {code}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", list(INPUTS))
def test_mutated_inputs_exit_cleanly(tmp_path, capsys, originals, command):
    for case in range(CASES_PER_COMMAND):
        rng = random.Random(f"{command}-{case}")
        _run_mutated(tmp_path, originals, command, case, rng.choice(INPUTS[command]), rng)
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", TWIN_READERS)
def test_mutated_twins_exit_cleanly(tmp_path, capsys, originals, command):
    for case in range(TWIN_CASES_PER_COMMAND):
        rng = random.Random(f"{command}-twin-{case}")
        _run_mutated(tmp_path, originals, command, f"twin{case}", "twin", rng)
    capsys.readouterr()
