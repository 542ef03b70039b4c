"""The benchmark's span tracer must find every name it wraps in the library.

A target that stopped resolving would otherwise only show up as a missing
layer in a traced benchmark run.  ``bench/tracer.py`` is read and executed
in a fresh namespace (no import, so nothing is written next to it).
"""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    missing = []
    for layer, owner, attr, _ in tracer.TARGETS:
        obj = tracer._resolve(owner)
        if obj is None or not callable(getattr(obj, attr, None)):
            missing.append((layer, f"{owner}.{attr}"))
    assert missing == []
