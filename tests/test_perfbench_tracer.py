"""The benchmark's tracer (perfbench/tracer.py) wraps alselect functions by
module and name. Installing it here makes a rename or deletion of one of
those names fail the test suite, not only the next benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_bindings():
    tracer_module = load_tracer_module()
    sites = [(importlib.import_module(m), attr) for m, attr, _ in tracer_module.CALL_SITES]
    originals = [getattr(mod, attr, None) for mod, attr in sites]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(sites, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr, None) is fn for (mod, attr), fn in zip(sites, originals))
