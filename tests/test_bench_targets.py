"""The benchmark's traced call sites still exist in the package.

``bench/tracing.py`` replaces each ``(owner, attribute)`` in its ``TARGETS``
with a timing wrapper for the length of a traced run, looking the original
up with ``vars(owner)[attribute]``. A rename or a move under ``src/`` would
otherwise break only ``bench/run.py --trace 1``, not the test suite.
"""

import importlib.util
from pathlib import Path

from aespace import encoder, trainer
from aespace.synth import SynthConfig, generate

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_callable_attribute():
    targets = _tracing().TARGETS
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if not callable(vars(owner).get(attr))
    ]
    assert missing == []


def test_traced_training_reports_its_steps():
    tracing = _tracing()
    ds = generate(SynthConfig(n=30, d_in=4, seed=1))
    with tracing.installed(tracing.Tracer()) as tracer, tracer.span(tracing.JOB_SPAN):
        params, _ = trainer.train(ds, trainer.TrainConfig(max_steps=5, batch_size=4, seed=2))
        encoder.forward(params, ds.features)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["trainer.steps"] == (5, "count")
    assert metrics["encoder.forward.calls"][0] >= 1
