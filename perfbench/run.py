"""One end-to-end benchmark for the BEAGLE reproduction, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mcmc-nuc --seed 1 --seconds 20 --trace 0

Workloads: ``mcmc-nuc``, ``ml-cuda``, ``cluster-codon``, ``serve-open``
(see ``catalog.WORKLOADS`` for why each was chosen), or ``all`` to run
the four in turn.  Inputs are generated from ``--seed``; the program
only sees the generated inputs.

``--trace 0`` is the end-to-end run: no tracing, the program set up
several times (``setup_s`` is the median), the workload measured for
``--seconds``, every output checked by the workload's oracle.  Every
named metric is printed with its unit and clock; the last line is a
JSON object whose ``metrics`` are the workload-neutral end-to-end
metrics of ``BENCHMARK.json``.

``--trace 1`` is the per-layer run: half of ``--seconds`` untraced, then
half with spans recorded around every layer's public functions from
this directory (nothing in ``src/`` is traced); the last line carries
the per-layer metrics, including the tracing overhead.  Spans and a
full record (host fingerprint, seed, every metric with unit, clock and
direction) are written under ``.perfbench_out/`` in the checkout.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import stats  # noqa: E402

#: Program set-ups per end-to-end run, before and after the measured
#: window; ``setup_s`` is their median.  Taking them at both ends lets
#: the median see more than one state of a shared host.
SETUPS_BEFORE = 4
SETUPS_AFTER = 3


def _workload_class(name: str):
    if name == "mcmc-nuc":
        from mcmc_nuc import McmcNuc as cls
    elif name == "ml-cuda":
        from ml_cuda import MlCuda as cls
    elif name == "cluster-codon":
        from cluster_codon import ClusterCodon as cls
    else:
        from serve_open import ServeOpen as cls
    return cls


def _timed_setups(workload, count: int):
    """``count`` set-ups, keeping the last; returns (handle, seconds)."""
    from common import perf

    times: List[float] = []
    handle = None
    for _ in range(count):
        if handle is not None:
            workload.teardown(handle)
        t0 = perf()
        handle = workload.setup()
        times.append(perf() - t0)
    return handle, times


def _measure_checked(workload, handle, seconds: float, mode: str,
                     corrupt: bool) -> dict:
    try:
        run = workload.measure(handle, seconds, mode)
        checked, wrong = workload.check(handle, run, corrupt)
    finally:
        workload.teardown(handle)
    run["attempted"] += checked
    run["failed"] += wrong
    run["incorrect"] = wrong
    return run


def run_untraced(name: str, seed: int, seconds: float, smoke: bool = False,
                 corrupt: bool = False) -> dict:
    workload = _workload_class(name)(seed, smoke)
    handle, setup_times = _timed_setups(workload, SETUPS_BEFORE)
    run = _measure_checked(workload, handle, seconds, "run", corrupt)
    handle, after = _timed_setups(workload, SETUPS_AFTER)
    workload.teardown(handle)
    setup_times += after
    named = dict(run["named"])
    named["setup_s"] = stats.median(setup_times)
    named["peak_rss_mb"] = stats.peak_rss_mb()
    named["fail_ratio"] = run["failed"] / run["attempted"]
    metrics = {
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        "throughput_per_s": named[catalog.HEADLINE[name]],
    }
    return {
        "workload": name, "seed": seed, "trace": 0,
        "correct": run["incorrect"] == 0,
        "attempted": run["attempted"], "failed": run["failed"],
        "named": named, "metrics": metrics,
        "notes": dict(run.get("notes", {}), setup_times_s=setup_times),
    }


def run_traced(name: str, seed: int, seconds: float, smoke: bool = False,
               corrupt: bool = False,
               spans_path: Optional[Path] = None) -> dict:
    from common import Spans
    from tracing import Instrumentation, Recorder, attribute, layer_self

    workload = _workload_class(name)(seed, smoke)
    half = seconds / 2.0
    handle, _ = _timed_setups(workload, 1)
    base = _measure_checked(workload, handle, half, "base", corrupt)

    recorder = Recorder()
    with Instrumentation(recorder):
        with recorder.root_span(f"bench.{name}") as root:
            handle = workload.setup()
            try:
                traced = workload.measure(handle, half, "traced")
            except BaseException:
                workload.teardown(handle)
                raise
    try:
        checked, wrong = workload.check(handle, traced, corrupt)
    finally:
        workload.teardown(handle)

    own = attribute(recorder.spans)
    spans = Spans(recorder.spans, own, traced["window"],
                  recorder.thread_names)
    per_layer: Dict[str, float] = {m.name: 0.0 for m in catalog.PER_LAYER}
    per_layer.update(workload.layer_metrics(traced, spans))
    self_s = layer_self(recorder.spans, own)
    for layer in catalog.LAYERS:
        per_layer[f"self_pct.{layer}"] = (
            100.0 * self_s.get(layer, 0.0) / root.wall
        )
    per_layer["bench.trace_overhead_pct"] = 100.0 * (
        stats.median(traced["op_ms"]) / stats.median(base["op_ms"]) - 1.0
    )
    unknown = set(per_layer) - {m.name for m in catalog.PER_LAYER}
    if unknown:
        raise KeyError(f"uncatalogued per-layer metrics: {sorted(unknown)}")
    if spans_path is not None:
        recorder.to_jsonl(str(spans_path))
    incorrect = base["incorrect"] + wrong
    return {
        "workload": name, "seed": seed, "trace": 1,
        "correct": incorrect == 0,
        "attempted": base["attempted"] + traced["attempted"] + checked,
        "failed": base["failed"] + traced["failed"] + wrong,
        "metrics": per_layer,
        "notes": {
            "traced_wall_s": root.wall,
            "self_sum_s": sum(self_s.values()),
            "spans": len(recorder.spans),
            "layer_self_s": self_s,
        },
    }


def _row(metric: catalog.Metric, value: float) -> str:
    return (f"{metric.name:40s} {value:14.6g} {metric.unit:8s} "
            f"{metric.clock:6s} {metric.better}")


def report(result: dict) -> List[str]:
    """Human-readable lines: every metric with its unit and clock."""
    lines = [f"# workload {result['workload']} seed {result['seed']} "
             f"trace {result['trace']}"]
    if result["trace"]:
        table = [(m, result["metrics"][m.name]) for m in catalog.PER_LAYER]
    else:
        table = [
            (m, result["named"][m.name]) for m in catalog.NAMED
            if m.name in result["named"]
        ]
    lines += [_row(metric, value) for metric, value in table]
    lines.append(f"# attempted {result['attempted']} failed "
                 f"{result['failed']} correct {result['correct']}")
    for key, value in result["notes"].items():
        lines.append(f"# {key}: {json.dumps(value, default=str)}")
    return lines


def record(result: dict, seconds: float) -> dict:
    """The run as written to disk: every metric tagged, host recorded."""
    specs = {m.name: m for m in catalog.NAMED + catalog.PER_LAYER}
    specs.update({m.name: m for m, _ in catalog.END_TO_END})
    values = dict(result.get("named", {}), **result["metrics"])
    return {
        "workload": result["workload"], "seed": result["seed"],
        "trace": result["trace"], "seconds": seconds,
        "host": stats.fingerprint(),
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": specs[name].unit,
                   "clock": specs[name].clock,
                   "better": specs[name].better,
                   "moves": list(specs[name].moves)}
            for name, value in values.items()
        },
        "notes": result["notes"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(catalog.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = ROOT / "src"
    if not (program / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({program}/repro); "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(program))
    OUT.mkdir(exist_ok=True)
    # Kernel builds consult the autotuner's cache: point it inside the
    # checkout, where it never exists, so every run uses fitted configs.
    os.environ["PYBEAGLE_TUNE_CACHE"] = str(OUT / "tuning-cache.json")

    names = list(catalog.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = []
    for name in names:
        tag = f"{name}-trace{args.trace}-seed{args.seed}"
        if args.trace:
            # Tens of MB per traced run: keep the latest per workload.
            result = run_traced(name, args.seed, args.seconds,
                                spans_path=OUT / f"spans-{name}.jsonl")
        else:
            result = run_untraced(name, args.seed, args.seconds)
        with open(OUT / f"record-{tag}.json", "w") as out:
            json.dump(record(result, args.seconds), out, indent=1,
                      default=str)
        print("\n".join(report(result)), flush=True)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
        units = {m.name: m.unit for m in catalog.PER_LAYER}
        units.update({m.name: m.unit for m, _ in catalog.END_TO_END})
    else:
        metrics, units = {}, {}
        for result in results:
            table = result["metrics"] if args.trace else result["named"]
            for key, value in table.items():
                metrics[f"{result['workload']}:{key}"] = value
        for metric in catalog.NAMED + catalog.PER_LAYER:
            for name in names:
                units[f"{name}:{metric.name}"] = metric.unit
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
