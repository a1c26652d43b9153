"""cluster-codon: codon evaluations sharded over a CUDA and an x86 node.

GY94 (61 states) on ``Session.cluster`` with nodes ``gpu`` (simulated
CUDA) and ``x86`` (OpenCL on the CPU device) and a fixed shard count.
The only workload that reaches cluster placement and calibration and
the OpenCL-x86 codon lowering; the slowest node sets each evaluation's
time.  It also drives ``accel`` with 61 states where ``ml-cuda`` uses 4.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import Spans, Workload, accel_metrics, perf, scaled_yule
import stats

NODES = {"gpu": "cuda", "x86": "opencl-x86"}
N_SHARDS = 8


class ClusterCodon(Workload):
    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed)
        from repro.model.codon import GY94
        from repro.seq.patterns import compress_patterns
        from repro.seq.simulate import simulate_alignment

        tips, sites = (8, 60) if smoke else (24, 600)
        self.model = GY94(kappa=2.0, omega=0.2)
        self.tree = scaled_yule(tips, self.rng)
        aln = simulate_alignment(self.tree, self.model, sites, None,
                                 rng=self.rng)
        self.data = compress_patterns(aln)

    def setup(self):
        from repro.session import Session

        session = Session.cluster(
            self.data, self.tree, self.model, None, nodes=NODES,
            n_shards=N_SHARDS, precision="double",
        )
        session.log_likelihood()  # first round: builds and calibration
        return session

    def teardown(self, handle) -> None:
        handle.close()

    def measure(self, handle, seconds: float, mode: str) -> dict:
        session = handle
        makespan = session.metrics.gauge("cluster.makespan_s")
        values: List[float] = []
        eval_ms: List[float] = []
        makespans: List[float] = []
        utilization: Dict[str, List[float]] = {name: [] for name in NODES}
        start = perf()
        while not values or perf() - start < seconds:
            t0 = perf()
            values.append(session.log_likelihood())
            eval_ms.append(1e3 * (perf() - t0))
            makespans.append(makespan.value)
            for name, share in session.utilization().items():
                utilization[name].append(share)
        end = perf()
        q, tail = stats.tail(eval_ms)
        return {
            "window": (start, end),
            "op_ms": eval_ms,
            "attempted": len(values),
            "failed": 0,
            "values": values,
            "makespans": makespans,
            "utilization": utilization,
            "named": {
                "cluster.evals_per_s": 1e3 / stats.median(eval_ms),
                "cluster.eval_ms.p50": stats.median(eval_ms),
                "cluster.eval_ms.tail": tail,
                "cluster.makespan_ms": 1e3 * stats.mean(makespans),
            },
            "notes": {"eval_ms.tail_quantile": q, "samples": len(values)},
        }

    def check(self, handle, run: dict, corrupt: bool) -> Tuple[int, int]:
        expected = handle.serial_baseline()
        if corrupt:
            expected *= 1.0 + 1e-6
        failed = sum(1 for value in run["values"] if value != expected)
        return len(run["values"]), failed

    def layer_metrics(self, run: dict, spans: Spans) -> Dict[str, float]:
        from tracing import T0, T1

        evals = spans.named("ClusterSession.log_likelihood")
        tasks = spans.named("WorkerNode._evaluate_shard")
        names = {
            i: spans.thread_name(i).split("-")[1] for i in tasks
        }
        busy: Dict[str, float] = {name: 0.0 for name in NODES}
        sched_self: List[float] = []
        for e in evals:
            lo, hi = spans.all[e][T0], spans.all[e][T1]
            per_node = {name: 0.0 for name in NODES}
            for t in tasks:
                if lo <= spans.all[t][T0] <= hi:
                    per_node[names[t]] += spans.all[t][T1] - spans.all[t][T0]
            for name, seconds in per_node.items():
                busy[name] += seconds
            sched_self.append((hi - lo) - max(per_node.values()))
        n = len(evals) or 1
        bounds = [
            spans.attr(i, "lower_bound", 0.0)
            for i in spans.named("pack_shards")
        ]
        mean_bound = stats.mean(bounds)
        out = {
            f"cluster.node_ms.{name}": 1e3 * seconds / n
            for name, seconds in busy.items()
        }
        out.update({
            "cluster.sched_self_ms": 1e3 * stats.mean(sched_self),
            "cluster.placement_vs_lb": (
                stats.mean(run["makespans"]) / mean_bound
                if mean_bound > 0 else 0.0
            ),
            "cluster.makespan_ms": run["named"]["cluster.makespan_ms"],
        })
        for name, shares in run["utilization"].items():
            out[f"cluster.utilization.{name}"] = stats.mean(shares)
        out.update(accel_metrics(spans, len(evals)))
        return out
