"""The benchmark's trace points (sessionbench/tracing.py) bind to fedsign
names by string, so a rename in fedsign must fail here and not only in a
benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "sessionbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("sessionbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    tracing = load_tracing()
    for owner, attr, name, _ in tracing.POINTS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_install_then_remove_restores_every_original():
    tracing = load_tracing()
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.POINTS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr, _, _ in tracing.POINTS]
    finally:
        tracer.remove()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.POINTS] == originals
