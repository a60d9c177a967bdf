"""Every config field is set by some command-line path.

A dataclass field that no constructor call in ``src/aespace/cli.py`` passes
by keyword is a knob only tests can turn: it widens the config and its
validation without changing what a user can run. The only such fields
allowed are listed below, each with the reason it stays.
"""

import ast
import dataclasses
from pathlib import Path

from aespace.loss import LossConfig
from aespace.sampler import SamplerConfig
from aespace.synth import SynthConfig
from aespace.trainer import TrainConfig
from aespace.video import KalmanConfig, PeakConfig

CLI = Path(__file__).resolve().parents[1] / "src" / "aespace" / "cli.py"

CONFIGS = (TrainConfig, LossConfig, SamplerConfig, SynthConfig, KalmanConfig, PeakConfig)

ALLOWED = {
    "KalmanConfig.p0": "acceptance criterion 7 sets it",
    "KalmanConfig.x0": "acceptance criterion 7 sets it",
}


def _keywords_by_constructor():
    """{class name: keyword names passed to it} over every call in cli.py."""
    passed = {}
    for node in ast.walk(ast.parse(CLI.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            passed.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    return passed


def test_every_config_field_is_set_by_the_cli():
    passed = _keywords_by_constructor()
    unset = [
        f"{cls.__name__}.{f.name}"
        for cls in CONFIGS for f in dataclasses.fields(cls)
        if f.name not in passed.get(cls.__name__, set())
    ]
    assert sorted(set(unset) - set(ALLOWED)) == []


def test_allowlist_fields_still_exist():
    defined = {f"{cls.__name__}.{f.name}" for cls in CONFIGS for f in dataclasses.fields(cls)}
    assert sorted(set(ALLOWED) - defined) == []
