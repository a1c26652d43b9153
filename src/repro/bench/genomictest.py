"""genomictest: synthetic benchmark and correctness driver.

Reproduction of the paper's test program (section V-A): "This program
generates random synthetic datasets of arbitrary sizes and is used to
evaluate performance and assure correct functioning of the library."

Two timing modes:

* ``wall``  — real wall-clock of this host's implementations (honest for
  the single-core container this reproduction runs in);
* ``model`` — the calibrated simulated clock, reporting paper-scale
  numbers for the simulated devices.

Run as a module or console script::

    genomictest --states 4 --patterns 10000 --tips 16 \
                --backend cpu-sse --precision single --reps 5
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.bench.throughput import PartialsWorkload, gflops
from repro.core.flags import Flag
from repro.core.highlevel import TreeLikelihood
from repro.model.aminoacid import make_benchmark_aa_model
from repro.model.codon import GY94
from repro.model.nucleotide import HKY85
from repro.model.sitemodel import SiteModel
from repro.seq.simulate import synthetic_pattern_set
from repro.tree.generate import balanced_tree
from repro.util.rng import spawn_rng

BACKEND_FLAGS = {
    "cpu-serial": dict(requirement_flags=Flag.VECTOR_NONE),
    "cpu-sse": dict(requirement_flags=Flag.VECTOR_SSE,
                    preference_flags=Flag.THREADING_NONE),
    "cpp-threads": dict(requirement_flags=Flag.THREADING_CPP),
    "cuda": dict(requirement_flags=Flag.FRAMEWORK_CUDA),
    "opencl-gpu": dict(requirement_flags=Flag.FRAMEWORK_OPENCL
                       | Flag.PROCESSOR_GPU),
    "opencl-x86": dict(requirement_flags=Flag.FRAMEWORK_OPENCL
                       | Flag.PROCESSOR_CPU),
}


def model_for_states(state_count: int, rng=None):
    """A benchmark model with the requested state count (4, 20, or 61)."""
    if state_count == 4:
        return HKY85(kappa=2.0, frequencies=[0.3, 0.2, 0.2, 0.3])
    if state_count == 20:
        return make_benchmark_aa_model()
    if state_count == 61:
        return GY94(kappa=2.0, omega=0.5)
    raise ValueError(
        f"unsupported state count {state_count}; choose 4, 20, or 61"
    )


@dataclass
class GenomictestResult:
    """One benchmark measurement."""

    workload: PartialsWorkload
    backend: str
    precision: str
    seconds_per_eval: float
    mode: str
    log_likelihood: float
    #: Per-kernel simulated-time breakdown (model mode only).
    breakdown: Optional[dict] = None

    @property
    def gflops(self) -> float:
        return gflops(self.workload.total_flops, self.seconds_per_eval)


def run_genomictest(
    tips: int = 16,
    patterns: int = 1000,
    states: int = 4,
    categories: int = 4,
    backend: str = "cpu-sse",
    precision: str = "double",
    reps: int = 3,
    mode: str = "wall",
    seed: int = 42,
    thread_count: Optional[int] = None,
) -> GenomictestResult:
    """Generate a random dataset and time repeated full evaluations.

    ``mode="model"`` reads the simulated clock of accelerator backends
    instead of wall time (and is invalid for pure-CPU backends, which
    have no simulated clock).
    """
    if backend not in BACKEND_FLAGS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {sorted(BACKEND_FLAGS)}"
        )
    if mode not in ("wall", "model"):
        raise ValueError(f"mode must be wall|model, got {mode!r}")
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    rng = spawn_rng(seed)
    workload = PartialsWorkload(tips, patterns, states, categories)
    model = model_for_states(states)
    site_model = (
        SiteModel.gamma(0.5, categories) if categories > 1 else SiteModel.uniform()
    )
    data = synthetic_pattern_set(tips, patterns, states, rng=rng)
    tree = balanced_tree(_next_pow2(tips), rng=rng)
    tree = _prune_to(tree, tips)

    kwargs = dict(BACKEND_FLAGS[backend])
    kwargs["precision"] = precision
    if thread_count is not None and backend == "cpp-threads":
        kwargs["thread_count"] = thread_count
    tl = TreeLikelihood(tree, data, model, site_model, **kwargs)
    try:
        impl = tl.instance.impl
        if mode == "model" and not hasattr(impl, "simulated_time"):
            raise ValueError(
                f"backend {backend} has no simulated clock; use mode='wall'"
            )
        # Warm-up evaluation (also yields the correctness-check value).
        log_like = tl.log_likelihood()
        plan = tl.traversal_plan()
        breakdown = None
        if mode == "model":
            impl.reset_simulated_time()
            for _ in range(reps):
                tl.instance.update_partials(plan.operations)
            elapsed = impl.simulated_time
            breakdown = dict(impl.interface.clock.by_label)
        else:
            start = time.perf_counter()
            for _ in range(reps):
                tl.instance.update_partials(plan.operations)
            elapsed = time.perf_counter() - start
    finally:
        tl.finalize()
    return GenomictestResult(
        workload=workload,
        backend=backend,
        precision=precision,
        seconds_per_eval=elapsed / reps,
        mode=mode,
        log_likelihood=log_like,
        breakdown=breakdown,
    )


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _prune_to(tree, tips: int):
    """Prune a balanced tree down to exactly ``tips`` leaves."""
    from repro.tree.tree import Tree

    while tree.n_tips > tips:
        # Remove one leaf: replace its parent with its sibling.
        leaf = max(tree.root.tips(), key=lambda n: n.index)
        parent = leaf.parent
        sibling = (
            parent.children[0]
            if parent.children[1] is leaf
            else parent.children[1]
        )
        grand = parent.parent
        if grand is None:
            sibling.detach()
            sibling.branch_length = 0.0
            tree = Tree(sibling)
            continue
        slot = grand.children.index(parent)
        parent.detach()
        sibling.parent = None
        grand.children.insert(slot, sibling)
        sibling.parent = grand
        sibling.branch_length += parent.branch_length
        tree = Tree(tree.root)
    return tree


def verify_backends(
    tips: int = 8,
    patterns: int = 200,
    states: int = 4,
    seed: int = 7,
    backends: Optional[List[str]] = None,
    tolerance: float = 1e-5,
) -> bool:
    """Correctness mode: all backends must agree on the log-likelihood.

    This is the "assure correct functioning" role of genomictest and the
    library's public self-test.
    """
    backends = backends or sorted(BACKEND_FLAGS)
    values = {}
    for backend in backends:
        result = run_genomictest(
            tips=tips, patterns=patterns, states=states,
            backend=backend, precision="double", reps=1, seed=seed,
        )
        values[backend] = result.log_likelihood
    reference = values[backends[0]]
    for backend, value in values.items():
        if not np.isclose(value, reference, rtol=tolerance):
            raise AssertionError(
                f"{backend} disagrees: {value} vs {reference}"
            )
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="genomictest",
        description="BEAGLE synthetic benchmark / correctness driver",
    )
    parser.add_argument("--tips", type=int, default=16)
    parser.add_argument("--patterns", type=int, default=1000)
    parser.add_argument("--states", type=int, default=4, choices=(4, 20, 61))
    parser.add_argument("--categories", type=int, default=4)
    parser.add_argument(
        "--backend", default="cpu-sse", choices=sorted(BACKEND_FLAGS)
    )
    parser.add_argument(
        "--precision", default="double", choices=("single", "double")
    )
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--mode", default="wall", choices=("wall", "model"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--verify", action="store_true",
        help="run the cross-backend correctness check instead of timing",
    )
    parser.add_argument(
        "--breakdown", action="store_true",
        help="print the per-kernel simulated-time breakdown (model mode)",
    )
    args = parser.parse_args(argv)
    if args.verify:
        verify_backends(
            tips=min(args.tips, 16), patterns=min(args.patterns, 500),
            states=args.states, seed=args.seed,
        )
        print("all backends agree")
        return 0
    result = run_genomictest(
        tips=args.tips,
        patterns=args.patterns,
        states=args.states,
        categories=args.categories,
        backend=args.backend,
        precision=args.precision,
        reps=args.reps,
        mode=args.mode,
        seed=args.seed,
    )
    print(
        f"backend={result.backend} precision={result.precision} "
        f"tips={args.tips} patterns={args.patterns} states={args.states} "
        f"mode={result.mode}"
    )
    print(
        f"time/eval = {result.seconds_per_eval * 1e3:.3f} ms, "
        f"throughput = {result.gflops:.2f} GFLOPS, "
        f"logL = {result.log_likelihood:.4f}"
    )
    if args.breakdown:
        if result.breakdown is None:
            print("(per-kernel breakdown requires --mode model)")
        else:
            from repro.util.tables import format_table

            total = sum(result.breakdown.values())
            rows = [
                [name, t * 1e6, 100.0 * t / total]
                for name, t in sorted(
                    result.breakdown.items(), key=lambda kv: -kv[1]
                )
            ]
            print(format_table(
                ["kernel", "simulated us", "% of total"], rows,
                title="per-kernel breakdown",
            ))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
