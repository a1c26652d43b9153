"""Shared pieces of the four workloads: inputs, span queries."""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from tracing import ID, LAYER, NAME, PARENT, T0, T1, TID, ATTRS

perf = time.perf_counter


class Workload:
    """One named workload: inputs from a seed, set-up, a timed loop, an
    oracle, and the per-layer numbers read from a traced run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def setup(self):
        raise NotImplementedError

    def teardown(self, handle) -> None:
        pass

    def measure(self, handle, seconds: float, mode: str) -> dict:
        """Run for ``seconds``; returns a record with at least
        ``named`` (named metrics), ``op_ms`` (per-operation latencies),
        ``window`` (start, end), ``attempted`` and ``failed``.

        ``mode`` is ``run`` for an untraced end-to-end run, ``base`` for
        the untraced half of a traced run and ``traced`` for its traced
        half."""
        raise NotImplementedError

    def check(self, handle, run: dict, corrupt: bool) -> Tuple[int, int]:
        """The oracle: ``(checks attempted, checks failed)``.

        ``corrupt`` perturbs the reference values, so every check must
        then fail; the benchmark's self-test relies on it.
        """
        raise NotImplementedError

    def layer_metrics(self, run: dict, spans: "Spans") -> Dict[str, float]:
        """Per-layer metrics of this workload from a traced run."""
        raise NotImplementedError


def scaled_yule(n_tips: int, rng, scale: float = 0.1):
    """A Yule tree with branch lengths in a realistic substitution range."""
    from repro.tree import yule_tree

    tree = yule_tree(n_tips, rng=rng)
    for node in tree.root.preorder():
        if not node.is_root:
            node.branch_length *= scale
    return tree


def exact_patterns(tree, model, site_model, n_patterns: int, rng):
    """Simulate under ``model`` and keep exactly ``n_patterns`` unique
    columns (each of weight 1), so the work per evaluation does not
    depend on the seed."""
    from repro.seq.patterns import compress_patterns
    from repro.seq.simulate import simulate_alignment

    sites = 2 * n_patterns
    while True:
        aln = simulate_alignment(tree, model, sites, site_model, rng=rng)
        full = compress_patterns(aln)
        if full.n_patterns >= n_patterns:
            break
        sites *= 2
    _, first = np.unique(full.site_to_pattern, return_index=True)
    return compress_patterns(aln.sites([int(s) for s in first[:n_patterns]]))


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- span queries --------------------------------------------------------------

class Spans:
    """Index over one traced run's spans."""

    def __init__(self, spans: List[tuple], own: List[float],
                 window: Optional[Tuple[float, float]] = None,
                 thread_names: Optional[Dict[int, str]] = None) -> None:
        self.all = spans
        self.own = own
        self.thread_names = thread_names or {}
        self.index = {span[ID]: i for i, span in enumerate(spans)}
        lo, hi = window if window is not None else (-1e300, 1e300)
        self.inside = [
            i for i, span in enumerate(spans) if lo <= span[T0] <= hi
        ]

    def named(self, *names: str) -> List[int]:
        wanted = set(names)
        return [i for i in self.inside if self.all[i][NAME] in wanted]

    def durations(self, idx: Iterable[int]) -> List[float]:
        return [self.all[i][T1] - self.all[i][T0] for i in idx]

    def attr(self, i: int, key: str, default=None):
        attrs = self.all[i][ATTRS]
        return default if attrs is None else attrs.get(key, default)

    def ancestor(self, i: int, names: Sequence[str]) -> Optional[int]:
        """The nearest ancestor of span ``i`` named one of ``names``."""
        parent = self.all[i][PARENT]
        while parent is not None:
            j = self.index.get(parent)
            if j is None:
                return None
            if self.all[j][NAME] in names:
                return j
            parent = self.all[j][PARENT]
        return None

    def layer_own(self, layer: str, fw: Optional[str] = None) -> float:
        """Self time of ``layer`` inside the window (one framework's
        interfaces only, with ``fw``)."""
        total = 0.0
        for i in self.inside:
            span = self.all[i]
            if span[LAYER] != layer:
                continue
            if fw is not None and self.attr(i, "fw") != fw:
                continue
            total += self.own[i]
        return total

    def thread_name(self, i: int) -> str:
        return self.thread_names.get(self.all[i][TID], "")


def accel_metrics(spans: Spans, n_ops: int) -> Dict[str, float]:
    """Per-launch host and simulated cost of the accel layer."""
    out: Dict[str, float] = {}
    launches: Dict[str, List[int]] = {}
    for i in spans.named("HardwareInterface.launch"):
        launches.setdefault(spans.attr(i, "fw"), []).append(i)
    for fw in ("cuda", "opencl-x86"):
        idx = launches.get(fw, [])
        host = spans.layer_own("accel", fw=fw)
        out[f"accel.{fw}.host_us_per_launch"] = (
            1e6 * host / len(idx) if idx else 0.0
        )
    cuda = launches.get("cuda", [])
    sim = sum(spans.attr(i, "sim", 0.0) for i in cuda)
    flops = sum(spans.attr(i, "flops", 0.0) for i in cuda)
    out["accel.cuda.launches"] = len(cuda) / n_ops if n_ops else 0.0
    out["accel.cuda.sim_us_per_launch"] = 1e6 * sim / len(cuda) if cuda else 0.0
    out["accel.cuda.sim_gflops"] = flops / sim / 1e9 if sim > 0 else 0.0
    builds = spans.durations(
        i for i in range(len(spans.all))
        if spans.all[i][NAME] == "HardwareInterface.build_program"
    )
    out["accel.build_ms"] = 1e3 * sum(builds) / len(builds) if builds else 0.0
    return out
