"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces each traced function in every `nmwitness` module
namespace that holds it, so the wrapper sits where the caller looks the name
up (for example `nmwitness.choi.first_order_channel` and `nmwitness.cli.scan`).
Rate evaluation is traced at the `__call__` of each rate class. A span records
its name, start, end, parent span and operation id; spans stay in memory until
`write` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

MODULES = ("rates", "channels", "choi", "linalg", "witness", "geometry", "cli")


def _gksl_info(args, kwargs, result):
    return {"dim": args[0].dim, "iterations": result.iterations, "kkt_ok": result.kkt_ok}


def _nnls_info(args, kwargs, result):
    return {"iterations": result.iterations, "kkt_ok": result.kkt_ok}


def _sample_info(args, kwargs, result):
    n, d = result.shape[0], args[0]
    return {"n": n, "bytes": n * d ** 4 * 16}


def _probe_info(args, kwargs, result):
    return {"trials": result.n_trials, "failures": result.failures}


def _emit_info(args, kwargs, result):
    out_path = args[1] if len(args) > 1 else kwargs.get("out_path")
    return {"bytes": os.path.getsize(out_path) if out_path else 0}


# (span name, module, attribute, info extractor)
TRACED = (
    ("rates.rate", "rates", "ConstantRate.__call__", None),
    ("rates.rate", "rates", "ExpressionRate.__call__", None),
    ("rates.rate", "rates", "TableRate.__call__", None),
    ("channels.gksl_superoperator", "channels", "gksl_superoperator", None),
    ("channels.first_order_channel", "channels", "first_order_channel", None),
    ("channels.exact_channel", "channels", "exact_channel", None),
    ("channels.haar_unitaries", "channels", "haar_unitaries", None),
    ("choi.choi_of_generator", "choi", "choi_of_generator", None),
    ("choi.choi_of_channel", "choi", "choi_of_channel", None),
    ("choi.classify", "choi", "classify", None),
    ("choi.scan", "choi", "scan", None),
    ("linalg.hermitian_eig", "linalg", "hermitian_eig", None),
    ("linalg.matrix_exp", "linalg", "matrix_exp", None),
    ("witness.spectral_witnesses", "witness", "spectral_witnesses", None),
    ("witness.theorem3_witness", "witness", "theorem3_witness", None),
    ("witness.expectation", "witness", "expectation", None),
    ("witness.nearest_mcs_fixed_basis", "witness", "nearest_mcs_fixed_basis", _nnls_info),
    ("witness.nearest_mcs_full_gksl", "witness", "nearest_mcs_full_gksl", _gksl_info),
    ("witness.sample_markovian_chois", "witness", "sample_markovian_chois", _sample_info),
    ("witness.verify_witness", "witness", "verify_witness", None),
    ("geometry.convexity_probe", "geometry", "convexity_probe", _probe_info),
    ("geometry.hs_norm_probe", "geometry", "hs_norm_probe", _probe_info),
    ("geometry.extreme_point_probe", "geometry", "extreme_point_probe", _probe_info),
    ("geometry.separation_demo", "geometry", "separation_demo", _probe_info),
    ("cli.load_channel_spec", "cli", "load_channel_spec", None),
    ("cli.load_witness_matrix", "cli", "load_witness_matrix", None),
    ("cli.emit_report", "cli", "emit_report", _emit_info),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Collects spans from `call` and from the wrappers `install` puts in place.

    A span is [name, start, end, parent index or -1, op id, info dict or None].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.op_id = ""
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, info=None):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.current, self.op_id, None]
        self.spans.append(span)
        self.current = idx
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = {"error": type(exc).__name__}
            raise
        finally:
            span[2] = time.perf_counter()
            self.current = span[3]
        if info is not None:
            span[5] = info(args, kwargs, result)
        return result

    def _wrapper(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        mods = [importlib.import_module(f"nmwitness.{m}") for m in MODULES]
        for name, mod_name, attr, info in TRACED:
            mod = importlib.import_module(f"nmwitness.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrapper(name, original, info))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrapper(name, original, info)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op", "info"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(all_spans: list[list], start: int = 0) -> dict[str, float]:
    """Per-layer counts and self times of the spans from index `start` on.

    A span's self time is its duration minus its children's durations.
    """
    spans = all_spans[start:]
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= start:
            child[span[3] - start] += span[2] - span[1]
    count: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    info_sum: dict[str, float] = defaultdict(float)
    for i, (name, t0, t1, _parent, _op, info) in enumerate(spans):
        dur = t1 - t0
        count[name] += 1
        self_s[name] += dur - child[i]
        if not info:
            continue
        if "error" in info:
            errors[name.split(".")[0]] += 1
            continue
        if name == "witness.nearest_mcs_full_gksl":
            d = info["dim"]
            total_s[f"gksl.d{d}"] += dur
            info_sum[f"gksl_iterations.d{d}"] += info["iterations"]
        if name in ("witness.nearest_mcs_full_gksl", "witness.nearest_mcs_fixed_basis"):
            info_sum["projections"] += 1
            info_sum["kkt_fail"] += 0 if info["kkt_ok"] else 1
        if name == "witness.nearest_mcs_fixed_basis":
            info_sum["nnls_iterations"] += info["iterations"]
        for key in ("n", "bytes", "trials", "failures"):
            if key in info:
                info_sum[f"{name}.{key}"] += info[key]

    def s(*names):
        return sum(self_s[n] for n in names)

    m = {
        "rates.calls": count["rates.rate"],
        "rates.self_s": s("rates.rate"),
        "rates.errors": errors["rates"],
        "channels.superop_calls": count["channels.gksl_superoperator"],
        "channels.superop_s": s("channels.gksl_superoperator", "channels.first_order_channel",
                                "channels.exact_channel"),
        "channels.haar_s": s("channels.haar_unitaries"),
        "choi.states": count["choi.choi_of_generator"],
        "choi.build_s": s("choi.choi_of_generator", "choi.choi_of_channel"),
        "choi.classify_calls": count["choi.classify"],
        "choi.classify_s": s("choi.classify"),
        "choi.scan_s": s("choi.scan"),
        "linalg.eigh_calls": count["linalg.hermitian_eig"],
        "linalg.eigh_s": s("linalg.hermitian_eig"),
        "linalg.expm_calls": count["linalg.matrix_exp"],
    }
    for d in (2, 3, 4, 5):
        m[f"witness.gksl_s.d{d}"] = total_s[f"gksl.d{d}"]
        m[f"witness.gksl_iterations.d{d}"] = info_sum[f"gksl_iterations.d{d}"]
    projections = info_sum["projections"]
    probes = [name for name, _, _, info in TRACED if info is _probe_info]
    m.update({
        "witness.kkt_fail_ratio": info_sum["kkt_fail"] / projections if projections else 0.0,
        "witness.nnls_s": s("witness.nearest_mcs_fixed_basis"),
        "witness.nnls_iterations": info_sum["nnls_iterations"],
        "witness.spectral_s": s("witness.spectral_witnesses"),
        "witness.theorem3_s": s("witness.theorem3_witness"),
        "witness.sample_s": s("witness.sample_markovian_chois"),
        "witness.samples": info_sum["witness.sample_markovian_chois.n"],
        "witness.sample_bytes_computed": info_sum["witness.sample_markovian_chois.bytes"],
        "witness.verify_s": s("witness.verify_witness"),
        "geometry.convexity_s": s("geometry.convexity_probe"),
        "geometry.hsnorm_s": s("geometry.hs_norm_probe"),
        "geometry.extreme_s": s("geometry.extreme_point_probe"),
        "geometry.separation_s": s("geometry.separation_demo"),
        "geometry.trials": sum(info_sum[f"{p}.trials"] for p in probes),
        "geometry.failures": sum(info_sum[f"{p}.failures"] for p in probes),
        "cli.spec_load_s": s("cli.load_channel_spec", "cli.load_witness_matrix"),
        "cli.emit_s": s("cli.emit_report"),
        "cli.emit_bytes": info_sum["cli.emit_report.bytes"],
    })
    for layer in MODULES:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    return m
