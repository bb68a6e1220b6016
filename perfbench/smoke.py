"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Run from the root of a source checkout. It checks that

* every workload, untraced and traced, prints a last line with exactly the
  keys `correct`, `attempted`, `failed` and `metrics`, and exactly the
  metrics BENCHMARK.json names for that mode;
* a deliberately corrupted report fails its check, and a run whose repeat
  differs from the first report counts as a failed operation (negative
  controls);
* without the program's sources beside it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "7", "--seconds", "0.2",
                           "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_names(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"] for m in bench[key]}
        for workload in (w["name"] for w in bench["workloads"]):
            proc = run_benchmark(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            got = set(result["metrics"])
            assert got == expected, (workload, trace, got ^ expected)
            assert result["attempted"] >= 1 and result["correct"], (workload, trace, proc.stdout)
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['failed']} of {result['attempted']} operations failed")


def check_negative_controls() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from checks import check_op
    from inputs import build_plan
    from run import tally
    from nmwitness.cli import main

    workdir = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"
    corruptions = {
        "analyze": lambda r: r["points"][0].update(min_eigenvalue=r["points"][0]["min_eigenvalue"] + 1e-6),
        "witness": lambda r: r["witnesses"][0].update(expectation=r["witnesses"][0]["expectation"] * 0.5),
        "verify": lambda r: r.update(violations=1),
        "geometry": lambda r: r.update(n_trials=r["n_trials"] + 1),
    }
    try:
        for workload in ("scan", "witness", "montecarlo"):
            plan = build_plan(workload, 7, str(workdir / workload), tiny=True)
            seen = set()
            for op in plan["ops"]:
                if op["command"] in seen or op["id"].startswith("scan-ad"):
                    continue
                seen.add(op["command"])
                code = main(op["argv"])
                problems, _ = check_op(op, op["out"], code, plan)
                assert not problems, (op["id"], problems)
                with open(op["out"], encoding="utf-8") as fh:
                    report = json.load(fh)
                corruptions[op["command"]](report)
                with open(op["out"], "w", encoding="utf-8") as fh:
                    json.dump(report, fh)
                problems, _ = check_op(op, op["out"], code, plan)
                assert any(kind == "error" for kind, _ in problems), (op["id"], problems)
                attempted, failed, errors = tally([[0, 0.1, 0.1, code, True]], [problems], [code])
                assert (attempted, failed, errors) == (1, 1, 1)
                print(f"ok: corrupted {op['command']} report fails: {problems[0][1]}")
        assert tally([[0, 0.1, 0.1, 0, False]], [[]], [0]) == (1, 1, 1)
        assert tally([[0, 0.1, 0.1, 3, True]], [[("verdict", "x")]], [3]) == (1, 1, 0)
        print("ok: a changed repeat is an error, a verdict problem a failure only")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_without_sources() -> None:
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, "scan", 0)
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
        print(f"ok: without sources the benchmark exits {proc.returncode} with no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_negative_controls()
    check_without_sources()
    check_metric_names(bench)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
