"""Each decision named below is written in one module under ``src/aespace``.

The row-block rule (``np.array_split`` into ``ROW_BLOCK``-row blocks) lives in
``data_model.row_blocks``, and the projection score is taken only inside
``ranker``, whose ``embed`` returns the norms to every caller. In ``cli``, only
``train`` and ``sample`` load a whole dataset; every other command reads its
input a block at a time. ``trainer.train`` draws its triplets once per window,
outside the step loop. Only ``data_model`` knows a file's binary twin: its
suffix and the helpers that write and read it. A name counts
wherever it appears as an ``ast.Name``, an ``ast.Attribute`` or an imported
name; ``__init__.py`` only re-exports the public API, so it is not counted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aespace"

OWNERS = {
    "array_split": "data_model.py",
    "ROW_BLOCK": "data_model.py",
    "projection_score": "ranker.py",
    **dict.fromkeys(["TWIN_SUFFIX", "_TWIN_HEAD", "_TWIN_MAGIC", "_TWIN_VERSION", "_TWIN_CHUNK",
                     "_open_twin", "_twin_rows", "_twin_chunk", "_TwinWriter", "_file_digest",
                     "_digest"], "data_model.py"),
}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname


def _modules_naming():
    naming = {name: set() for name in OWNERS}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name in _names(ast.parse(path.read_text(encoding="utf-8"))):
            if name in naming:
                naming[name].add(path.name)
    return naming


def test_each_name_is_used_in_its_owner_only():
    assert _modules_naming() == {name: {owner} for name, owner in OWNERS.items()}


def test_projection_score_is_called_only_inside_embed():
    tree = ast.parse((SRC / "ranker.py").read_text(encoding="utf-8"))
    callers = {
        node.name
        for node in tree.body if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
        and inner.func.id == "projection_score"
    }
    assert callers == {"embed"}


def test_only_train_and_sample_load_whole_datasets():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    elsewhere = {
        name
        for node in tree.body
        if not (isinstance(node, ast.FunctionDef) and node.name in ("_cmd_train", "_cmd_sample"))
        for name in _names(node)
    }
    assert "load_dataset" not in elsewhere


def test_train_draws_triplets_outside_its_step_loop():
    tree = ast.parse((SRC / "trainer.py").read_text(encoding="utf-8"))
    train = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "train")

    def draws(node):
        return [inner for inner in ast.walk(node)
                if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "collect_indices"]

    assert len(draws(train)) == 1
    assert not [call for loop in ast.walk(train) if isinstance(loop, ast.For) for call in draws(loop)]
