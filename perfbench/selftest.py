"""Self-test of the benchmark at a small smoke size.

Run from the repository root::

    python3 perfbench/selftest.py

Checks, for every workload:

* an untraced run emits every named and every end-to-end metric, each
  with the unit and clock the catalog gives it;
* a traced run emits every per-layer metric, and the layer self times
  add up to within 10% of the traced wall time;
* a deliberately wrong oracle value raises the fail ratio above 0 (the
  clean run's fail ratio reflects the program, not the benchmark, and
  is printed at the end);

and that ``BENCHMARK.json`` is the one the catalog defines, and that
the benchmark refuses to run, without printing a result, when the
program is not next to it.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import run  # noqa: E402

SECONDS = 1.0


class SelfTestError(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def check_untraced(name: str) -> float:
    result = run.run_untraced(name, seed=0, seconds=SECONDS, smoke=True)
    lines = "\n".join(run.report(result))
    owned = [m for m in catalog.NAMED if name in m.workloads]
    for metric in owned:
        expect(metric.name in result["named"],
               f"{name}: named metric {metric.name} missing")
        row = next((line for line in lines.splitlines()
                    if line.split()[:1] == [metric.name]), "")
        expect(row.split()[2:4] == [metric.unit, metric.clock],
               f"{name}: {metric.name} printed without unit and clock")
    for metric, _ in catalog.END_TO_END:
        value = result["metrics"].get(metric.name)
        expect(value is not None and value > 0,
               f"{name}: end-to-end {metric.name} missing or zero")
    return result["named"]["fail_ratio"]


def check_traced(name: str) -> None:
    result = run.run_traced(name, seed=0, seconds=2 * SECONDS, smoke=True)
    missing = [m.name for m in catalog.PER_LAYER
               if m.name not in result["metrics"]]
    expect(not missing, f"{name}: per-layer metrics missing: {missing}")
    notes = result["notes"]
    share = notes["self_sum_s"] / notes["traced_wall_s"]
    expect(abs(share - 1.0) <= 0.10,
           f"{name}: layer self times cover {share:.3f} of traced wall")


def check_wrong_oracle(name: str) -> None:
    result = run.run_untraced(name, seed=0, seconds=SECONDS, smoke=True,
                              corrupt=True)
    expect(result["named"]["fail_ratio"] > 0 and not result["correct"],
           f"{name}: a wrong oracle value left fail_ratio at 0")


def check_benchmark_json() -> None:
    with open(ROOT / "BENCHMARK.json") as f:
        on_disk = json.load(f)
    expect(on_disk == catalog.benchmark_json(),
           "BENCHMARK.json differs from catalog.benchmark_json()")


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mcmc-nuc",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0, "ran without the program")
    expect("correct" not in done.stdout, "printed a result without the program")


def main() -> int:
    import os

    os.environ["PYBEAGLE_TUNE_CACHE"] = str(
        ROOT / ".perfbench_out" / "tuning-cache.json"
    )
    checks = [("BENCHMARK.json", check_benchmark_json),
              ("no program", check_refuses_without_program)]
    clean: dict = {}
    for name in catalog.WORKLOADS:
        checks += [
            (f"{name} untraced",
             lambda n=name: clean.__setitem__(n, check_untraced(n))),
            (f"{name} traced", lambda n=name: check_traced(n)),
            (f"{name} wrong oracle", lambda n=name: check_wrong_oracle(n)),
        ]
    for label, check in checks:
        try:
            check()
        except SelfTestError as exc:
            print(f"FAIL {label}: {exc}")
            return 1
        print(f"ok   {label}", flush=True)
    for name, ratio in clean.items():
        print(f"clean-run fail_ratio {name}: {ratio:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
