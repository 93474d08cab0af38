"""The benchmark's tracer still finds every function it wraps.

``perfbench/spans.py`` wraps isopath's layer entry points by name in the
modules that call them; a name that moves or is renamed would break every
traced benchmark run, so the tracer is installed and removed here."""

import importlib.util
from pathlib import Path

import isopath
import isopath.cli  # noqa: F401  (the tracer wraps names in it)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_and_is_restored():
    spans = _load_spans()
    originals = {
        (module, attr): getattr(getattr(isopath, module), attr)
        for module, functions in spans.WRAPPED.items()
        for attr in functions
    }
    assert ("cli", "cover_multipartite") in originals
    tracer = spans.Tracer()
    tracer.install(isopath)
    try:
        for (module, attr), original in originals.items():
            assert getattr(getattr(isopath, module), attr) is not original, (module, attr)
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(getattr(isopath, module), attr) is original, (module, attr)
