"""Run one workload's operations in this fresh interpreter and save raw timings.

Usage (started by run.py, with BLAS threads pinned to 1 in its environment):

    python perfbench/worker.py --src SRC --plan PLAN --mode setup
    python perfbench/worker.py --src SRC --plan PLAN --mode e2e|trace \
        --seconds S --result RESULT [--spans SPANS]

`setup` imports `nmwitness.cli`, loads every input file through the program's
loaders and prints one line when it is ready for the first operation. `e2e`
and `trace` run one untimed warm-up round, keeping each first report for the
checks, then repeat the round as a closed loop (`e2e` the plan's fixed number
of rounds, `trace` for about --seconds): one client, each operation an
in-process `nmwitness.cli.main(argv)` call that starts after the previous one
returned. `trace` alternates untraced and traced rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

CAP_FACTOR = 3


def import_program(src: str):
    sys.path.insert(0, src)
    start = time.perf_counter()
    import nmwitness.cli as cli
    import_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"worker: imported nmwitness from {cli.__file__}, not from {src}")
    return cli, import_s


def load_inputs(cli, plan: dict) -> None:
    for path in plan["specs"]:
        cli.load_channel_spec(path)
    for path in plan["witness_files"]:
        cli.load_witness_matrix(path)


def report_digest(path: str) -> str:
    """sha256 of the report without its timestamp line; '' if it is missing."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    except OSError:
        return ""
    return hashlib.sha256(b"".join(l for l in lines if b'"timestamp"' not in l)).hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpus": os.cpu_count(),
    }


class Runner:
    """Runs the plan's ops in order; the first pass keeps each report."""

    def __init__(self, ops: list, keep_dir: str):
        self.ops = ops
        self.keep_dir = keep_dir
        self.reference: list[str] = []
        self.warmup_codes: list[int] = []

    def run_op(self, op: dict, call) -> tuple[float, float, int, str]:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = call(op)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        return wall, cpu, code, report_digest(op["out"])

    def warmup(self, call) -> float:
        start = time.perf_counter()
        for op in self.ops:
            _, _, code, digest = self.run_op(op, call)
            if os.path.exists(op["out"]):
                os.replace(op["out"], os.path.join(self.keep_dir, f"{op['id']}.json"))
            self.warmup_codes.append(code)
            self.reference.append(digest)
        return time.perf_counter() - start

    def round(self, records: list, call, between=None) -> float:
        """One pass over the ops, appending [op, wall, cpu, exit code, same
        report as the first pass] to records and calling `between` after each
        op; returns the summed op wall time."""
        total = 0.0
        for i, op in enumerate(self.ops):
            wall, cpu, code, digest = self.run_op(op, call)
            if os.path.exists(op["out"]):
                os.remove(op["out"])
            records.append([i, wall, cpu, code, digest == self.reference[i]])
            if between is not None:
                between()
            total += wall
        return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    cli, import_s = import_program(args.src)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    load_inputs(cli, plan)
    if args.mode == "setup":
        print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
        return 0

    keep_dir = os.path.join(os.path.dirname(args.plan), "reports")
    os.makedirs(keep_dir, exist_ok=True)
    runner = Runner(plan["ops"], keep_dir)

    def plain(op):
        return cli.main(op["argv"])

    warm_s = runner.warmup(plain)
    result = {"env": environment(), "warmup_s": warm_s, "warmup_codes": runner.warmup_codes,
              "keep_dir": keep_dir, "records": []}

    if args.mode == "e2e":
        # A fixed number of rounds, so that every version of the program is
        # timed on the same operations and its tail is the same rank of them.
        # Running past CAP_FACTOR * --seconds cuts the run short (run.py warns).
        # The machine-speed probe runs after every op, while this process waits.
        from reference import Probe

        with Probe() as probe:
            start = time.perf_counter()
            rounds = 0
            while rounds < plan["rounds"] and (
                    rounds == 0 or time.perf_counter() - start < CAP_FACTOR * args.seconds):
                runner.round(result["records"], plain, probe.measure)
                rounds += 1
        result["rounds"] = rounds
        result["ref_wall_s"], result["ref_cpu_s"] = probe.wall, probe.cpu
    else:
        from tracer import ROOT_SPAN, Tracer, layer_metrics

        tracer = Tracer()

        def traced(op):
            tracer.op_id = op["id"]
            return tracer.call(ROOT_SPAN, cli.main, (op["argv"],), {})

        untraced_s, traced_s, per_round = [], [], []
        start = time.perf_counter()
        while not traced_s or time.perf_counter() - start < args.seconds:
            untraced_s.append(runner.round(result["records"], plain))
            first_span = len(tracer.spans)
            tracer.install()
            try:
                traced_s.append(runner.round(result["records"], traced))
            finally:
                tracer.uninstall()
            per_round.append(layer_metrics(tracer.spans, first_span))
        result["untraced_round_s"] = untraced_s
        result["traced_round_s"] = traced_s
        result["layers"] = per_round
        result["largest_sample_bytes"] = max(
            [span[5]["bytes"] for span in tracer.spans
             if span[0] == "witness.sample_markovian_chois" and span[5]] or [0])
        if args.spans:
            tracer.write(args.spans)

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
