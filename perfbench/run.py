"""nmwitness benchmark: seeded closed-loop workloads with checked reports.

    python3 perfbench/run.py --workload scan|witness|montecarlo --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
`src/` there and fails (exit code 2, no result) when that is missing. It
reads and writes only inside the checkout: inputs and reports go to a private
directory under `.perfbench_work/` that is removed at the end, and the spans
of a traced run are saved to `.perfbench_out/`.

Workloads (one client in one process, each operation an in-process
`nmwitness.cli.main(argv)` call on generated files; see inputs.py):

* scan: `analyze` on d=2 Pauli, d=3 and d=4 Haar-unitary and d=2
  amplitude-damping specs, 320-10 000 grid steps. Loads the per-point loop
  (rates, channels, choi, linalg.hermitian_eig); no projection, no sampling.
* witness: `witness` in all three modes on non-Markovian targets at
  d = 2..5 with unitary and Ginibre jumps. Loads the projection solvers;
  almost no rate evaluation.
* montecarlo: `verify` at d = 2, 3, 4 and the four geometry probes. Loads
  batched sampling (witness.sample_markovian_chois, channels.haar_unitaries,
  batched eigvalsh); reaches Choi construction batched, where scan reaches
  it per point.

With `--trace 0` it prints the end-to-end metrics; `setup_s` is the median of
several fresh interpreters that import `nmwitness.cli` and load the inputs.
The timed rounds (a fixed number per workload, see inputs.ROUNDS) run in a
separate fresh interpreter with BLAS threads pinned to 1. The machine is
shared and its speed drifts over minutes, so end-to-end times are scaled to a
nominal machine speed (see REF_NOMINAL_S); the raw values are printed too.
With `--trace 1` it runs
untraced and traced rounds alternately and prints per-layer counts and raw
self times per round, with the traced over untraced time as
`trace.overhead_ratio`. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

`--workload all` runs every workload untraced and traced and ends with one
JSON object whose metric names are prefixed with the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Probe

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# End-to-end times are reported as they would be on a machine where the
# reference kernel (reference.py) takes REF_NOMINAL_S: measured * REF_NOMINAL_S
# / kernel median, with the kernel timed between the operations (in CPU time
# for cpu_s_per_item) and after each set-up interpreter. The raw values are
# printed beside them.
REF_NOMINAL_S = 5e-3



def declared_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_probes(src: Path, plan_path: Path, env: dict) -> tuple[list, list, list]:
    """Fresh interpreters: wall time until ready, import time of nmwitness.cli,
    and the reference kernel's wall time right after each."""
    walls, imports, refs = [], [], []
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src),
           "--plan", str(plan_path), "--mode", "setup"]
    with Probe(env) as probe:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                if proc.wait(timeout=60) != 0 or not line:
                    raise RuntimeError("setup probe failed")
            walls.append(ready - start)
            imports.append(json.loads(line)["import_s"])
            for _ in range(3):
                probe.measure()
            refs.append(statistics.median(probe.wall[-3:]))
    return walls, imports, refs


def scipy_import_s(env: dict) -> float:
    """Cumulative import time of the outermost scipy modules under -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nmwitness.cli"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = 0
    for i, (depth, cumulative, name) in enumerate(rows):
        if not name.startswith("scipy"):
            continue
        # importtime lists children before their parent: the parent is the next
        # row with a smaller depth.
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or not parent[2].startswith("scipy"):
            total += cumulative
    return total * 1e-6


def tail(values: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def tally(records: list, problems: list, warmup_codes: list) -> tuple[int, int, int]:
    """(attempted, failed, errors) over the timed operations.

    An operation fails when its first report has a problem. It is an error,
    not only a failure, when that problem is not a verdict disagreement, when
    its exit code differs from the first run's, or when its report differs
    from the first one.
    """
    attempted = failed = errors = 0
    for i, _wall, _cpu, code, same in records:
        attempted += 1
        is_error = (code != warmup_codes[i] or not same
                    or any(kind == "error" for kind, _ in problems[i]))
        failed += bool(is_error or problems[i])
        errors += is_error
    return attempted, failed, errors


def run_all(args, workloads) -> int:
    """Every workload, untraced then traced; the last line sums them up."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            print(f"== {workload} --trace {trace}", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].update(
                {f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="scan, witness, montecarlo, or all: each of them untraced and traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke.py")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nmwitness" / "cli.py").is_file():
        print(f"run.py: no nmwitness sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from checks import check_op
    from inputs import WORKLOADS, build_plan

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {WORKLOADS} or all",
              file=sys.stderr)
        return 2
    units = declared_units()

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = build_plan(args.workload, args.seed, str(workdir), tiny=args.tiny)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = child_env(src)
        setup_walls, import_walls, setup_refs = setup_probes(src, plan_path, env)

        result_path = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src), "--plan",
               str(plan_path), "--mode", "trace" if args.trace else "e2e",
               "--seconds", str(args.seconds), "--result", str(result_path)]
        if args.trace:
            out_dir = root / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            cmd += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")]
        proc = subprocess.run(cmd, env=env, timeout=150)
        if proc.returncode != 0:
            print(f"run.py: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))

        ops = plan["ops"]
        problems, items = [], []
        for op, code in zip(ops, result["warmup_codes"]):
            found, n = check_op(op, os.path.join(result["keep_dir"], f"{op['id']}.json"),
                                code, plan)
            problems.append(found)
            items.append(n)
        attempted, failed, errors = tally(result["records"], problems, result["warmup_codes"])
        print(f"env: {json.dumps(result['env'])}")
        for op, found in zip(ops, problems):
            for kind, msg in found:
                print(f"check {kind}: {op['id']}: {msg}")

        records = result["records"]
        by_op = [[r for r in records if r[0] == i] for i in range(len(ops))]
        for op, n, runs in zip(ops, items, by_op):
            print(f"op {op['id']}: {n} items, median "
                  f"{statistics.median(r[1] for r in runs):.4g} s over {len(runs)} runs")
        if args.trace:
            layers = result["layers"]
            metrics = {k: statistics.fmean(r[k] for r in layers) for k in layers[0]}
            for k in layers[0]:
                if units[k] != "s" and len({r[k] for r in layers}) > 1:
                    print(f"warning: {k} differs between traced rounds: "
                          f"{[r[k] for r in layers]}")
            metrics["cli.import_s"] = statistics.median(import_walls)
            metrics["cli.import_scipy_s"] = scipy_import_s(env)
            metrics["trace.overhead_ratio"] = (statistics.median(result["traced_round_s"])
                                               / statistics.median(result["untraced_round_s"])
                                               - 1.0)
            print(f"traced rounds: {len(layers)}, spans saved under .perfbench_out/")
            print(f"memory: largest sampled Choi stack {result['largest_sample_bytes'] / 2**20:.1f} MB "
                  f"computed as n*d^4*16 B; peak RSS {result['peak_rss_kb'] / 1024.0:.1f} MB "
                  f"measured in the traced process")
        else:
            walls = [r[1] for r in records]
            op_tail, pct = tail(walls)
            # Throughput and CPU cost of a typical round: each operation's
            # median over its repeats, so that a repeat which ran while the
            # shared machine was slow does not move them.
            round_items = sum(items)
            med_wall = sum(statistics.median(r[1] for r in runs) for runs in by_op)
            med_cpu = sum(statistics.median(r[2] for r in runs) for runs in by_op)
            raw = {
                "setup_s": statistics.median(setup_walls),
                "items_per_s": round_items / med_wall,
                "op_p50_s": statistics.median(walls),
                "op_tail_s": op_tail,
                "cpu_s_per_item": med_cpu / round_items,
            }
            # Machine slowness against nominal, in wall and in CPU time.
            slow = statistics.median(result["ref_wall_s"]) / REF_NOMINAL_S
            slow_cpu = statistics.median(result["ref_cpu_s"]) / REF_NOMINAL_S
            metrics = {
                "setup_s": statistics.median(
                    w * REF_NOMINAL_S / r for w, r in zip(setup_walls, setup_refs)),
                "items_per_s": raw["items_per_s"] * slow,
                "op_p50_s": raw["op_p50_s"] / slow,
                "op_tail_s": raw["op_tail_s"] / slow,
                "cpu_s_per_item": raw["cpu_s_per_item"] / slow_cpu,
                "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
                "ok_ratio": 1.0 - failed / attempted,
            }
            print(f"machine: reference kernel median {slow * REF_NOMINAL_S * 1e3:.4f} ms wall, "
                  f"{slow_cpu * REF_NOMINAL_S * 1e3:.4f} ms CPU in the timed rounds, "
                  f"{statistics.median(setup_refs) * 1e3:.4f} ms wall in set-up "
                  f"(nominal {REF_NOMINAL_S * 1e3:g} ms); raw: "
                  + ", ".join(f"{k} = {v:.6g} {units[k]}" for k, v in raw.items()))
            if result["rounds"] < plan["rounds"]:
                print(f"warning: cut short after {result['rounds']} of {plan['rounds']} rounds; "
                      f"op_tail_s is taken at another rank than in a full run")
            print(f"rounds: {result['rounds']} of {len(ops)} operations, {round_items} items each; "
                  f"op_tail_s is p{pct:.1f} of {len(walls)} operations "
                  f"({TAIL_BEYOND} beyond it)")
            print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} operations)")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        print(json.dumps({
            "correct": errors == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
