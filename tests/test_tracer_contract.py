"""Every name the benchmark tracer (perfbench/tracer.py) patches must exist.

The tracer wraps program functions by module and attribute name; a rename or
deletion in src/ would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer_module()
    for mod_name in tracer.MODULES:
        importlib.import_module(f"nmwitness.{mod_name}")
    assert tracer.TRACED
    for span, mod_name, attr, _ in tracer.TRACED:
        mod = importlib.import_module(f"nmwitness.{mod_name}")
        owner, _, name = attr.rpartition(".")
        if owner:
            # install() patches the class's own __dict__ entry, not an inherited one.
            assert name in vars(getattr(mod, owner)), (span, attr)
        else:
            assert callable(getattr(mod, name, None)), (span, attr)
