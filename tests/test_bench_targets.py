"""The benchmark's traced call sites still exist in the package.

``bench/tracing.py`` replaces each ``(owner, attribute)`` in its ``TARGETS``
with a timing wrapper for the length of a traced run, looking the original
up with ``vars(owner)[attribute]``. A rename or a move under ``src/`` would
otherwise break only ``bench/run.py --trace 1``, not the test suite.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_is_a_callable_attribute():
    targets = _targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if not callable(vars(owner).get(attr))
    ]
    assert missing == []
