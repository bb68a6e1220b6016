"""Every name the benchmark tracer (perfbench/tracer.py) patches must exist,
and every field its info extractors read.

The tracer wraps program functions by module and attribute name and reads
fields of their arguments and results; a rename or deletion in src/ would
otherwise surface only in a traced benchmark run.
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


def test_every_info_extractor_reads_a_real_call(tmp_path):
    # Each extractor reads fields of its function's arguments and result
    # (NearestMCSResult.iterations, ProbeReport.n_trials, ...); one tiny real
    # call per traced function shows that those fields still exist.
    from nmwitness.channels import builtin_pauli
    from nmwitness.choi import choi_of_generator
    from nmwitness.witness import pauli_family

    tracer = _tracer_module()
    cn = choi_of_generator(builtin_pauli(1.0, 1.0, -0.3), 0.0, 1e-3)
    calls = {
        "nearest_mcs_fixed_basis": (cn, pauli_family(1e-3)),
        "nearest_mcs_full_gksl": (cn,),
        "sample_markovian_chois": (2, 1e-3, 3, 0),
        "convexity_probe": (2, 1e-3, 3, 0),
        "hs_norm_probe": (2, 1e-3, 3, 0),
        "extreme_point_probe": (2, 1e-3, 3, 0),
        "separation_demo": (cn, 3, 0),
        "emit_report": ({"command": "probe", "n": 1}, str(tmp_path / "r.json"), "json"),
    }
    used = set()
    for span, mod_name, attr, info in tracer.TRACED:
        if info is None:
            continue
        args = calls[attr]
        result = getattr(importlib.import_module(f"nmwitness.{mod_name}"), attr)(*args)
        fields = info(args, {}, result)
        assert fields and all(isinstance(v, (bool, int)) for v in fields.values()), (span, fields)
        used.add(info.__name__)
    assert used == {"_gksl_info", "_nnls_info", "_sample_info", "_probe_info", "_emit_info"}
