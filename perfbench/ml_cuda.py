"""ml-cuda: Newton branch-length solves on the simulated CUDA device.

``optimize_branch_lengths_newton`` with upper partials: the accel
simulator's bookkeeping, ``core.upper`` and the batched-gradient kernel
do the work.  ``mcmc`` and ``serve`` do no work.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from common import Spans, Workload, accel_metrics, exact_patterns, perf
from common import relative_error, scaled_yule
from mcmc_nuc import PATTERNS
import stats

MAX_SWEEPS = 12


class MlCuda(Workload):
    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed)
        from repro.model import HKY85, SiteModel

        tips, patterns = (12, 150) if smoke else (64, PATTERNS)
        self.model = HKY85(kappa=2.0)
        self.site_model = SiteModel.gamma(0.5, 4)
        self.tree = scaled_yule(tips, self.rng)
        self.data = exact_patterns(self.tree, self.model, self.site_model,
                                   patterns, self.rng)
        self.nodes = [
            n.index for n in self.tree.root.preorder() if not n.is_root
        ]
        self._starts: List[Dict[int, float]] = []

    def start_lengths(self, k: int) -> Dict[int, float]:
        """Seeded log-normal perturbation of the true lengths, solve k."""
        while len(self._starts) <= k:
            noise = np.exp(self.rng.normal(0.0, 0.5, len(self.nodes)))
            self._starts.append({
                idx: self.tree.node_by_index(idx).branch_length * float(f)
                for idx, f in zip(self.nodes, noise)
            })
        return self._starts[k]

    def setup(self):
        from repro.config import backend_flags
        from repro.core.highlevel import TreeLikelihood

        tl = TreeLikelihood(
            self.tree.copy(), self.data, self.model, self.site_model,
            enable_upper_partials=True, precision="double",
            **backend_flags("cuda"),
        )
        tl.log_likelihood()
        return tl

    def teardown(self, handle) -> None:
        handle.finalize()

    def measure(self, handle, seconds: float, mode: str) -> dict:
        from repro.ml import optimize

        tl = handle
        impl = tl.instance.impl
        solves: List[dict] = []
        start = perf()
        while not solves or perf() - start < seconds:
            for idx, length in self.start_lengths(len(solves)).items():
                tl.tree.node_by_index(idx).branch_length = length
            sim0 = impl.simulated_time
            t0 = perf()
            result = optimize.optimize_branch_lengths_newton(
                tl, max_sweeps=MAX_SWEEPS
            )
            t1 = perf()
            solves.append({
                "seconds": t1 - t0,
                "sim": impl.simulated_time - sim0,
                "result": result,
                "tree": tl.tree.copy(),
            })
        end = perf()
        times = [s["seconds"] for s in solves]
        return {
            "window": (start, end),
            "op_ms": [1e3 * t for t in times],
            "attempted": len(solves),
            "failed": 0,
            "solves": solves,
            "named": {
                "ml.solve_s": stats.median(times),
                "ml.solves_per_s": 1.0 / stats.median(times),
                "ml.solve_s.max": max(times),
                "ml.device_s": stats.mean([s["sim"] for s in solves]),
            },
            "notes": {"samples": len(solves)},
        }

    def check(self, handle, run: dict, corrupt: bool) -> Tuple[int, int]:
        from repro.config import backend_flags
        from repro.core.highlevel import TreeLikelihood

        failed = 0
        for solve in run["solves"]:
            with TreeLikelihood(
                solve["tree"], self.data, self.model, self.site_model,
                precision="double", **backend_flags("cpu-serial"),
            ) as reference:
                expected = reference.log_likelihood()
            if corrupt:
                expected *= 1.0 + 1e-6
            if relative_error(solve["result"].log_likelihood, expected) > 1e-9:
                failed += 1
        return len(run["solves"]), failed

    def layer_metrics(self, run: dict, spans: Spans) -> Dict[str, float]:
        solves = run["solves"]
        results = [s["result"] for s in solves]
        gradients = spans.durations(
            spans.named("UpperPartials.branch_gradients")
        )
        out = {
            "ml.sweeps": stats.mean([r.n_passes for r in results]),
            "ml.evaluations": stats.mean([r.n_evaluations for r in results]),
            "ml.stopped_on_tolerance": stats.mean(
                [1.0 if r.n_passes < MAX_SWEEPS else 0.0 for r in results]
            ),
            "ml.gradient_ms_per_call": 1e3 * stats.mean(gradients),
            "ml.device_s": run["named"]["ml.device_s"],
        }
        out.update(accel_metrics(spans, len(solves)))
        return out
