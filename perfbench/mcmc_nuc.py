"""mcmc-nuc: a closed-loop MrBayes-style MC3 run on cpu-sse.

Each generation steps both chains and waits for their likelihoods, so
the host-side incremental path does the work: ``update_branch_lengths``
for branch moves, recomputation on restore after a rejection, and a
full traversal after every NNI.  ``accel`` and ``serve`` do no work.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import Spans, Workload, exact_patterns, perf, relative_error
from common import scaled_yule
from tracing import NAME
import stats

#: Distinct site patterns: what 2000 simulated sites compress to on a
#: 64-tip tree, fixed so that the work per generation does not depend
#: on the seed.
PATTERNS = 1500
#: Generations per timed block; also the swap and sample interval.
BLOCK = 10
#: Generations the same-seed replay re-runs and compares.
REPLAY = 100


class McmcNuc(Workload):
    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed)
        from repro.model import HKY85, SiteModel

        tips, patterns = (16, 150) if smoke else (64, PATTERNS)
        self.tree = scaled_yule(tips, self.rng)
        self.data = exact_patterns(self.tree, HKY85(kappa=2.0),
                                   SiteModel.gamma(0.5, 4), patterns,
                                   self.rng)
        self.chain_seed = int(self.rng.integers(2**62))

    def _sampler(self):
        from repro.mcmc.mc3 import MetropolisCoupledMCMC
        from repro.mcmc.runner import MrBayesRunner, nucleotide_analysis

        runner = MrBayesRunner(
            nucleotide_analysis(self.tree, self.data), backend="cpu-sse",
            precision="double", n_chains=2, rng=self.chain_seed,
        )
        # The runner's own chain factory, driven generation by generation
        # so each generation can be timed (MrBayesRunner.run has no hook).
        return runner, MetropolisCoupledMCMC(
            runner._chain_factory, n_chains=runner.n_chains,
            delta_t=runner.delta_t, rng=runner.rng,
        )

    def setup(self):
        return self._sampler()

    def teardown(self, handle) -> None:
        handle[1].finalize()

    def measure(self, handle, seconds: float, mode: str) -> dict:
        _, mc3 = handle
        stamps: List[float] = []
        mc3.on_generation = lambda m, gen: stamps.append(perf())
        caches0 = [c.backend.tl.matrix_cache_stats() for c in mc3.chains]
        start = perf()
        gen_ms: List[float] = []
        block_rates: List[float] = []
        while True:
            block0 = perf()
            mc3.run(BLOCK, swap_interval=BLOCK, sample_interval=BLOCK)
            prev = block0
            for t in stamps:
                gen_ms.append(1e3 * (t - prev))
                prev = t
            stamps.clear()
            block_rates.append(BLOCK / (prev - block0))
            if prev - start >= seconds:
                break
        end = perf()
        mc3.on_generation = None
        caches1 = [c.backend.tl.matrix_cache_stats() for c in mc3.chains]
        hits = sum(b["hits"] - a["hits"] for a, b in zip(caches0, caches1))
        misses = sum(
            b["misses"] - a["misses"] for a, b in zip(caches0, caches1)
        )
        q, tail = stats.tail(gen_ms)
        return {
            "window": (start, end),
            "op_ms": gen_ms,
            "attempted": len(gen_ms),
            "failed": 0,
            "generations": len(gen_ms),
            "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "named": {
                # Median over blocks: a burst of host contention moves
                # a few blocks, not the figure.
                "mcmc.gens_per_s": stats.median(block_rates),
                "mcmc.gen_ms.p50": stats.median(gen_ms),
                "mcmc.gen_ms.tail": tail,
            },
            "notes": {"gen_ms.tail_quantile": q, "samples": len(gen_ms)},
        }

    def check(self, handle, run: dict, corrupt: bool) -> Tuple[int, int]:
        from repro.config import backend_flags
        from repro.core.highlevel import TreeLikelihood

        runner, mc3 = handle
        attempted = failed = 0
        # Same seed, same chain trajectory: replay the first generations
        # from scratch and compare every sample field.
        replay_gens = min(REPLAY, mc3.generation)
        replay_gens -= replay_gens % BLOCK
        if replay_gens:
            _, again = self._sampler()
            try:
                again.run(replay_gens, swap_interval=BLOCK,
                          sample_interval=BLOCK)
                expected = [dict(vars(s)) for s in again.samples]
                if corrupt:
                    expected[0]["log_likelihood"] += 1e-6
                got = [vars(s) for s in mc3.samples[: len(expected)]]
                attempted += 1
                if got != expected:
                    failed += 1
            finally:
                again.finalize()
        # Final chain states re-evaluated on the cpu-serial reference.
        for chain in mc3.chains:
            model, site_model = runner.spec.model_factory(
                chain.state.parameters
            )
            with TreeLikelihood(
                chain.state.tree, self.data, model, site_model,
                precision="double", **backend_flags("cpu-serial"),
            ) as reference:
                expected = reference.log_likelihood()
            if corrupt:
                expected *= 1.0 + 1e-6
            attempted += 1
            if relative_error(chain.log_likelihood, expected) > 1e-9:
                failed += 1
        return attempted, failed

    def layer_metrics(self, run: dict, spans: Spans) -> Dict[str, float]:
        gens = run["generations"] or 1
        updates = spans.named("BeagleInstance.update_partials")
        ops = restore_ops = nni_ops = 0
        for i in updates:
            n = spans.attr(i, "ops", 0)
            ops += n
            j = spans.ancestor(
                i, ("BeagleBackend.restore", "BeagleBackend.propose_eval")
            )
            if j is None:
                continue
            if spans.all[j][NAME] == "BeagleBackend.restore":
                restore_ops += n
            elif spans.attr(j, "kind") == "topology":
                nni_ops += n
        propose = spans.durations(spans.named("BeagleBackend.propose_eval"))
        restore = spans.durations(spans.named("BeagleBackend.restore"))
        steps = spans.named("MarkovChain.step")
        accepted = sum(1 for i in steps if spans.attr(i, "accepted"))
        evals = len(spans.named("BeagleInstance.calculate_root_log_likelihoods"))
        plan = sum(spans.durations(
            spans.named("plan_traversal", "plan_partial_update")
        ))
        return {
            "core.partial_ops_per_gen": ops / gens,
            "core.restore_ops_share": restore_ops / ops if ops else 0.0,
            "core.nni_ops_share": nni_ops / ops if ops else 0.0,
            "mcmc.full_evals_per_gen":
                len(spans.named("TreeLikelihood.log_likelihood")) / gens,
            "mcmc.propose_eval_ms": 1e3 * stats.mean(propose),
            "mcmc.restore_ms": 1e3 * stats.mean(restore),
            "mcmc.accept_ratio": accepted / len(steps) if steps else 0.0,
            "core.matrix_cache_hit_ratio": run["cache_hit_ratio"],
            "core.update_partials_us_per_op":
                1e6 * sum(spans.durations(updates)) / ops if ops else 0.0,
            "tree.plan_ms_per_eval": 1e3 * plan / evals if evals else 0.0,
        }
