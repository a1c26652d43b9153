"""serve-open: open-loop Poisson traffic on a LikelihoodServer.

A ``LikelihoodServer`` on cpu-sse, deferred, ``pool_per_key=2``; four
tenants weighted 2:1:1:1.  Three readers each ask for the likelihood of
their own tree over one shared 32-tip x 1000-pattern HKY+G4 alignment
(one pool key: hits and rebinds); one writer sends branch-length
updates on a second alignment (a second pool key).  About 30% of the
requests are updates.

One generator thread sends every request at its due time, whatever the
server is doing (an open loop), so a stall shows as latency of later
requests: each request is timed from its due time to its completion,
and a rejected or failed request counts as missing every limit.  The
generator adds no other threads: completion times are stamped by a
done-callback on the worker thread that finishes the request.  Its own
lateness is reported per phase, and a phase it ran more than
``LATENESS_LIMIT_MS`` late (p99) is marked invalid.

Phases: the fixed rates 30 and 60 req/s alternate in ``ROUNDS`` short
rounds, each round ending with a burst of requests all due at once
(``serve.capacity_rps`` is the median burst drain rate).  The ladder
30 -> 120 req/s in steps of 15 reuses the fixed phases for 30 and 60,
always runs 45, and climbs above 60 while the rung below passed;
``serve.max_rps`` is the completion rate at the highest rung whose p99
stays within 100 ms without a growing backlog.  Arrivals in a phase are
a Poisson process conditioned on its count (``rate x duration``
uniform arrival times), so every seed offers the same load.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import Spans, Workload, exact_patterns, perf, relative_error
from common import scaled_yule
import stats

WEIGHTS = {"reader0": 2.0, "reader1": 1.0, "reader2": 1.0, "writer": 1.0}
READERS = ("reader0", "reader1", "reader2")
UPDATE_SHARE = 0.3
FIXED_RATES = (30, 60)
LADDER = (30, 45, 60, 75, 90, 105, 120)
#: Share of the run spent at the fixed rates, split over this many
#: alternating rounds; each other ladder rung gets RUNG_SHARE.
FIXED_SHARE = 0.6
ROUNDS = 3
RUNG_SHARE = 0.1
P99_LIMIT_MS = 100.0
#: A phase whose generator ran later than this (p99) is marked invalid:
#: it did not offer its nominal rate.
LATENESS_LIMIT_MS = 50.0
#: Burst size, as seconds of the top ladder rate per run second.
BURST_SHARE = 0.1


class Phase:
    """One rate phase: what was sent, when, and how it ended."""

    def __init__(self, rate, duration: float, count: int = 0) -> None:
        self.rate = rate
        self.duration = duration
        self.count = count
        self.requests: List[dict] = []
        self.rejected = 0
        self.start = 0.0

    def latencies_ms(self) -> List[float]:
        """Due-time latency of every request; rejects and failures count
        as missing any limit (infinite latency)."""
        out = []
        for r in self.requests:
            if r.get("done") is None or r.get("error") is not None:
                out.append(float("inf"))
            else:
                out.append(1e3 * (r["done"] - r["due"]))
        return out + [float("inf")] * self.rejected

    def span_s(self) -> float:
        finished = [r["done"] for r in self.requests if r.get("done")]
        return (max(finished) - self.start) if finished else 0.0

    def growing(self) -> bool:
        """Whether the backlog grew: the last quarter of the phase waited
        much longer than the first."""
        lat = self.latencies_ms()
        quarter = max(1, len(lat) // 4)
        return stats.median(lat[-quarter:]) > (
            2.0 * stats.median(lat[:quarter]) + 10.0
        )


def summarize(rate, phases: List[Phase]) -> dict:
    """One rate's figures over its (possibly interleaved) phases."""
    lat = [x for p in phases for x in p.latencies_ms()]
    requests = [r for p in phases for r in p.requests]
    lateness = [1e3 * (r["sent"] - r["due"]) for r in requests]
    sent = len(lat)
    succeeded = sum(1 for r in requests
                    if r.get("done") is not None and r.get("error") is None)
    span = sum(p.span_s() for p in phases)
    late_p99 = stats.percentile(lateness, 0.99)
    p99 = stats.percentile(lat, 0.99)
    valid = late_p99 <= LATENESS_LIMIT_MS
    growing = any(p.growing() for p in phases)
    tail_q, tail_ms = stats.tail(lat)
    return {
        "rate": rate,
        "sent": sent,
        "succeeded": succeeded,
        "failed": sent - succeeded,
        "p50_ms": stats.percentile(lat, 0.50),
        "p99_ms": p99,
        "tail_ms": tail_ms,
        "tail_quantile": tail_q,
        "completed_per_s": succeeded / span if span > 0 else 0.0,
        "lateness_p99_ms": late_p99,
        "valid": valid,
        "growing": growing,
        "passes": valid and not growing and p99 <= P99_LIMIT_MS,
    }


class ServeOpen(Workload):
    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed)
        from repro.model import HKY85, SiteModel

        tips = 12 if smoke else 32
        patterns = 120 if smoke else 1000
        self.model = HKY85(kappa=2.0)
        self.site_model = SiteModel.gamma(0.5, 4)
        shared_tree = scaled_yule(tips, self.rng)
        self.shared = exact_patterns(shared_tree, self.model,
                                     self.site_model, patterns, self.rng)
        self.trees = {name: scaled_yule(tips, self.rng) for name in READERS}
        writer_tree = scaled_yule(tips, self.rng)
        self.writer_data = exact_patterns(writer_tree, self.model,
                                          self.site_model, patterns // 2,
                                          self.rng)
        self.trees["writer"] = writer_tree
        self.writer_lengths = {
            n.index: n.branch_length
            for n in writer_tree.root.preorder() if not n.is_root
        }
        self.sent_lengths: Dict[int, set] = {}
        self.baselines: Dict[str, float] = {}

    # -- set-up ------------------------------------------------------------

    def _data(self, tenant: str):
        return self.writer_data if tenant == "writer" else self.shared

    def setup(self):
        from repro.config import SessionConfig
        from repro.serve import LikelihoodServer

        server = LikelihoodServer(
            SessionConfig(backend="cpu-sse", deferred=True,
                          precision="double"),
            max_queue=4096, pool_per_key=2,
        )
        clients = {
            name: server.register(name, weight=w, quota=4096)
            for name, w in WEIGHTS.items()
        }
        # Warm both instances of both pool keys.
        warm = [
            clients[name].submit(self._data(name), self.trees[name],
                                 self.model, self.site_model)
            for name in ("reader0", "reader1", "writer", "writer")
        ]
        for ticket in warm:
            ticket.result(timeout=60)
        return server, clients

    def teardown(self, handle) -> None:
        handle[0].shutdown()

    # -- traffic -----------------------------------------------------------

    def _plan(self, phase: Phase, rng) -> List[Tuple[float, str, Optional[dict]]]:
        """(offset, tenant, branch edits) for every arrival of a phase."""
        if phase.rate == "burst":
            offsets = np.zeros(phase.count)
        else:
            n = max(1, int(round(phase.rate * phase.duration)))
            offsets = np.sort(rng.uniform(0.0, phase.duration, n))
        plan = []
        for offset in offsets:
            if rng.random() < UPDATE_SHARE:
                node = int(rng.choice(list(self.writer_lengths)))
                length = self.writer_lengths[node] * float(
                    np.exp(rng.normal(0.0, 0.2))
                )
                plan.append((float(offset), "writer", {node: length}))
            else:
                plan.append((float(offset), READERS[int(rng.integers(3))],
                             None))
        return plan

    def _run_phase(self, server, clients, phase: Phase, rng,
                   depths: Optional[List[int]]) -> None:
        from repro.util.errors import AdmissionError

        plan = self._plan(phase, rng)
        phase.start = perf()
        tickets = []
        for offset, tenant, edits in plan:
            due = phase.start + offset
            delay = due - perf()
            if delay > 0:
                time.sleep(delay)
            record: dict = {"due": due, "tenant": tenant, "edits": edits}
            try:
                ticket = clients[tenant].submit(
                    self._data(tenant), self.trees[tenant], self.model,
                    self.site_model, branch_edits=edits,
                )
            except AdmissionError:
                phase.rejected += 1
                continue
            record["sent"] = perf()
            if edits:
                for node, length in edits.items():
                    self.sent_lengths.setdefault(node, set()).add(length)
            ticket._future.add_done_callback(
                lambda f, r=record: r.__setitem__("done", perf())
            )
            phase.requests.append(record)
            tickets.append((record, ticket))
            if depths is not None:
                depths.append(server.queue_depth())
        for record, ticket in tickets:
            try:
                record["value"] = ticket.result(timeout=120)
            except Exception as exc:  # a failed request is counted, not fatal
                record["error"] = exc
            # The done-callback runs just after the result is published.
            while ticket.done() and "done" not in record:
                time.sleep(1e-4)

    def _ladder(self, server, clients, seconds: float, rng,
                depths: Optional[List[int]]
                ) -> Tuple[List[dict], List[Phase]]:
        """The fixed rates, then the ladder, then a burst.

        The fixed-rate phases alternate in short rounds, so host
        contention that comes and goes falls on both rates alike.  The
        ladder's 30 and 60 rungs are those phases; 45 always runs, and
        each higher rung runs while the rung below it passed.  A burst
        of requests all due at once then measures the service rate.
        """
        fixed: Dict[int, List[Phase]] = {rate: [] for rate in FIXED_RATES}
        bursts: List[Phase] = []
        rungs: List[Phase] = []
        for _ in range(ROUNDS):
            for rate in FIXED_RATES:
                phase = Phase(rate, FIXED_SHARE * seconds
                              / (ROUNDS * len(FIXED_RATES)))
                self._run_phase(server, clients, phase, rng, depths)
                fixed[rate].append(phase)
            burst = Phase("burst", 0.0, count=int(
                BURST_SHARE * seconds * LADDER[-1] / ROUNDS))
            self._run_phase(server, clients, burst, rng, depths)
            bursts.append(burst)
        results = {rate: summarize(rate, ps) for rate, ps in fixed.items()}
        passed = True
        for rate in LADDER:
            if rate not in results:
                if rate > FIXED_RATES[-1] and not passed:
                    break
                phase = Phase(rate, RUNG_SHARE * seconds)
                self._run_phase(server, clients, phase, rng, depths)
                rungs.append(phase)
                results[rate] = summarize(rate, [phase])
            passed = results[rate]["passes"]
        results["burst"] = summarize("burst", bursts)
        results["burst"]["completed_per_s"] = stats.median(
            [summarize("burst", [b])["completed_per_s"] for b in bursts]
        )
        summaries = [results[k] for k in sorted(
            results, key=lambda k: (isinstance(k, str), k)
        )]
        ran = [p for ps in fixed.values() for p in ps] + rungs + bursts
        return summaries, ran

    def measure(self, handle, seconds: float, mode: str) -> dict:
        server, clients = handle
        rng = np.random.default_rng([self.seed, 1])
        metrics = server.metrics
        pool0 = {k: metrics.counter(f"serve.pool.{k}").value
                 for k in ("hit", "rebind", "miss")}
        occupancy = metrics.histogram("serve.batch.occupancy")
        occ0 = (occupancy.count, occupancy.sum)
        depths: Optional[List[int]] = [] if mode == "traced" else None
        start = perf()
        if mode == "run":
            summaries, phases = self._ladder(server, clients, seconds, rng,
                                             depths)
        else:
            # Both halves of a traced run: one loaded phase, so traced
            # and untraced latencies compare like for like.
            phases = [Phase(60, seconds)]
            self._run_phase(server, clients, phases[0], rng, depths)
            summaries = [summarize(60, phases)]
        end = perf()
        named = {}
        for s in summaries:
            if s["rate"] in FIXED_RATES:
                for key in ("p50_ms", "p99_ms", "tail_ms"):
                    named[f"serve.r{s['rate']}.{key}"] = s[key]
                named[f"serve.r{s['rate']}.rps"] = s["completed_per_s"]
            elif s["rate"] == "burst":
                named["serve.capacity_rps"] = s["completed_per_s"]
        if mode == "run":
            named["serve.max_rps"] = max(
                [s["completed_per_s"] for s in summaries
                 if s["rate"] in LADDER and s["passes"]] or [0.0]
            )
        hits = {k: metrics.counter(f"serve.pool.{k}").value - pool0[k]
                for k in pool0}
        acquisitions = sum(hits.values())
        count = occupancy.count - occ0[0]
        return {
            "window": (start, end),
            "op_ms": [x for p in phases if p.rate == 60
                      for x in p.latencies_ms()],
            "attempted": sum(s["sent"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "requests": [r for p in phases for r in p.requests],
            "pool_hit_ratio": hits["hit"] / acquisitions if acquisitions else 0.0,
            "occupancy_mean": (occupancy.sum - occ0[1]) / count if count else 0.0,
            "queue_depth_max": max(depths) if depths else 0,
            "named": named,
            "notes": {"phases": summaries},
        }

    # -- oracle ------------------------------------------------------------

    def _serial(self, tenant: str, backend: str) -> float:
        from repro.config import backend_flags
        from repro.core.highlevel import TreeLikelihood

        with TreeLikelihood(
            self.trees[tenant], self._data(tenant), self.model,
            self.site_model, precision="double", **backend_flags(backend),
        ) as reference:
            return reference.log_likelihood()

    def check(self, handle, run: dict, corrupt: bool) -> Tuple[int, int]:
        server, clients = handle
        for name in READERS:
            if name not in self.baselines:
                self.baselines[name] = self._serial(name, "cpu-sse")
        scale = 1.0 + 1e-6 if corrupt else 1.0
        attempted = failed = 0
        for record in run["requests"]:
            if record["tenant"] == "writer" or "value" not in record:
                continue
            attempted += 1
            if record["value"] != self.baselines[record["tenant"]] * scale:
                failed += 1
        # Writer state, probed once the queue has drained: every edited
        # branch holds a length that was sent for it, and the server's
        # value for the settled tree matches the cpu-serial reference.
        tree = self.trees["writer"]
        settled = all(
            tree.node_by_index(node).branch_length in lengths
            for node, lengths in self.sent_lengths.items()
        )
        probe = clients["writer"].submit(
            self.writer_data, tree, self.model, self.site_model,
        ).result(timeout=60)
        expected = self._serial("writer", "cpu-serial") * scale
        attempted += 1
        if not settled or relative_error(probe, expected) > 1e-9:
            failed += 1
        # Reported, not gated: the pooled instance's matrix cache holds
        # matrices computed in other batches, whose last bits can differ.
        run["notes"]["writer_probe_bit_identical"] = (
            probe == self._serial("writer", "cpu-sse")
        )
        return attempted, failed

    # -- per-layer ---------------------------------------------------------

    def layer_metrics(self, run: dict, spans: Spans) -> Dict[str, float]:
        from tracing import LAYER, T0

        tasks = spans.named("LikelihoodServer._execute")
        queue_wait = [
            1e3 * (spans.attr(i, "queued") - spans.attr(i, "submitted"))
            for i in tasks
        ]
        dispatch_wait = [
            1e3 * (spans.all[i][T0] - spans.attr(i, "queued")) for i in tasks
        ]
        acquire = spans.durations(spans.named("InstancePool.acquire"))
        core = [i for i in spans.inside if spans.all[i][LAYER] == "core"]
        return {
            "serve.queue_wait_ms.p50": stats.percentile(queue_wait, 0.50),
            "serve.queue_wait_ms.p99": stats.percentile(queue_wait, 0.99),
            "serve.acquire_ms": 1e3 * stats.mean(acquire),
            "serve.exec_ms": 1e3 * stats.mean(spans.durations(tasks)),
            "serve.pool_hit_ratio": run["pool_hit_ratio"],
            "serve.batch_occupancy_mean": run["occupancy_mean"],
            "serve.queue_depth_max": float(run["queue_depth_max"]),
            "sched.dispatch_wait_ms": stats.mean(dispatch_wait),
            "core.instance_self_us_per_call": (
                1e6 * sum(spans.own[i] for i in core) / len(core)
                if core else 0.0
            ),
        }
