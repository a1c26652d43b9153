"""Spans around the program's public functions, recorded from outside.

The program is not modified: :class:`Instrumentation` replaces the
public methods of each layer's classes (and the layer's public module
functions, wherever they were imported) with wrappers that record one
span per call, and puts the originals back on exit.  Spans stay in
memory as tuples and are written out once, after the run.

A span is ``(id, parent, name, layer, thread, start, end, wait, attrs)``.
Its parent is the span open on the same thread when it started; a span
that starts on an idle worker thread gets the span that handed the work
over (for work submitted through ``LabelledWorkerPool.submit``) or the
benchmark's root span.

Self time uses exclusive wall attribution: every instant of the traced
window is given to the innermost open span of each thread that is doing
work at that instant, split evenly when several threads work at once.
A span marked ``wait`` (a blocking ``result()``, the root span) only
receives time when no thread is doing work.  The layer self times
therefore add up to the traced wall time; on a single thread this is
exactly "duration minus the part covered by child spans".
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter
_ident = threading.get_ident

# Span tuple fields.
ID, PARENT, NAME, LAYER, TID, T0, T1, WAIT, ATTRS = range(9)


class Recorder:
    """Holds spans in memory; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.root: Optional[int] = None
        self.thread_names: Dict[int, str] = {}

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            self.thread_names[_ident()] = threading.current_thread().name
            return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else self.root

    def wrap(self, fn: Callable, name: str, layer: str, wait: bool = False,
             attrs: Optional[Callable] = None,
             parent: Optional[int] = None) -> Callable:
        """``fn`` recording one span per call.

        ``attrs(args, kwargs, result, before)`` returns the span's
        attributes; with ``attrs.before(args)`` defined, its value is
        taken just before the call (for clocks the call advances).
        """
        rec = self
        before = getattr(attrs, "before", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            up = stack[-1] if stack else (
                parent if parent is not None else rec.root
            )
            sid = next(rec._ids)
            stack.append(sid)
            token = before(args) if before is not None else None
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = _perf()
                stack.pop()
                rec.spans.append(
                    (sid, up, name, layer, _ident(), t0, t1, wait, None)
                )
                raise
            t1 = _perf()
            stack.pop()
            rec.spans.append((
                sid, up, name, layer, _ident(), t0, t1, wait,
                attrs(args, kwargs, result, token) if attrs else None,
            ))
            return result

        return traced

    def root_span(self, name: str) -> "_Root":
        return _Root(self, name)

    def to_jsonl(self, path: str) -> int:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span[ID], "parent": span[PARENT],
                    "name": span[NAME], "layer": span[LAYER],
                    "thread": self.thread_names.get(span[TID], span[TID]),
                    "start": span[T0], "end": span[T1],
                    "wait": span[WAIT], "attrs": span[ATTRS],
                }, default=str) + "\n")
        return len(self.spans)


class _Root:
    """The benchmark's own span, covering the whole traced window."""

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_Root":
        rec = self.rec
        self.sid = next(rec._ids)
        rec.root = self.sid
        rec._stack().append(self.sid)
        self.t0 = _perf()
        return self

    def __exit__(self, *exc) -> None:
        self.t1 = _perf()
        rec = self.rec
        rec._stack().pop()
        rec.spans.append((self.sid, None, self.name, "bench", _ident(),
                          self.t0, self.t1, True, None))

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


# -- what to wrap ------------------------------------------------------------

#: layer -> classes whose public methods (and ``__init__``) are wrapped.
LAYER_CLASSES: Dict[str, Tuple[str, ...]] = {
    "mcmc": (
        "repro.mcmc.mc3:MetropolisCoupledMCMC",
        "repro.mcmc.chain:MarkovChain",
        "repro.mcmc.chain:BeagleBackend",
        "repro.mcmc.proposals:BranchLengthMultiplier",
        "repro.mcmc.proposals:NNIMove",
        "repro.mcmc.proposals:ParameterMultiplier",
    ),
    "core": (
        "repro.core.highlevel:TreeLikelihood",
        "repro.core.instance:BeagleInstance",
        "repro.core.upper:UpperPartials",
    ),
    "impl": (
        "repro.impl.base:BaseImplementation",
        "repro.impl.cpu_serial:CPUSerialImplementation",
        "repro.impl.cpu_sse:CPUSSEImplementation",
        "repro.impl.accelerated:AcceleratedImplementation",
    ),
    "accel": (
        "repro.accel.framework:HardwareInterface",
        "repro.accel.cuda:CudaInterface",
        "repro.accel.opencl:OpenCLInterface",
    ),
    "cluster": (
        "repro.cluster.session:ClusterSession",
        "repro.cluster.scheduler:ClusterScheduler",
        "repro.cluster.scheduler:ClusterJob",
        "repro.cluster.node:WorkerNode",
    ),
    "serve": (
        "repro.serve.server:LikelihoodServer",
        "repro.serve.server:Ticket",
        "repro.serve.pool:InstancePool",
        "repro.serve.scheduler:DeficitRoundRobin",
    ),
    "sched": (
        "repro.sched.workers:LabelledWorkerPool",
    ),
}

#: layer -> public module functions (patched wherever they are bound).
LAYER_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "ml": (
        "repro.ml.optimize:optimize_branch_lengths_newton",
        "repro.ml.optimize:optimize_root_edge_newton",
        "repro.ml.optimize:optimize_branch_lengths",
    ),
    "tree": (
        "repro.tree.traversal:plan_traversal",
        "repro.tree.traversal:plan_partial_update",
    ),
    "cluster": (
        "repro.cluster.scheduler:pack_shards",
        "repro.cluster.scheduler:serial_shard_sum",
    ),
}

#: Calls that block on other threads' work.
WAITS = frozenset({
    "ClusterJob.result", "Ticket.result", "Ticket.exception",
    "ClusterScheduler.shutdown", "ClusterSession.close",
    "LikelihoodServer.shutdown", "LabelledWorkerPool.shutdown",
    "LabelledWorkerPool.retire", "WorkerNode.shutdown", "WorkerNode.retire",
})


def _resolve(path: str) -> Any:
    module, _, attr = path.partition(":")
    __import__(module)
    return getattr(sys.modules[module], attr)


def _accel_label(interface: Any) -> str:
    if interface.framework_name == "CUDA":
        return "cuda"
    processor = getattr(interface.device.processor, "name", "")
    return "opencl-x86" if processor == "CPU" else "opencl-gpu"


# -- attribute extractors ----------------------------------------------------

def _ops_attrs(args, kwargs, result, token):
    ops = args[1] if len(args) > 1 else kwargs.get("operations", ())
    return {"ops": len(ops)}


def _proposal_kind(pr: Any) -> str:
    if pr.parameters_changed:
        return "param"
    if pr.topology_changed:
        return "topology"
    return "branch"


def _backend_attrs(args, kwargs, result, token):
    return {"kind": _proposal_kind(args[2])}


def _step_attrs(args, kwargs, result, token):
    return {"accepted": bool(result)}


def _acquire_attrs(args, kwargs, result, token):
    return {"outcome": result[1] if result else "saturated"}


def _accel_attrs(args, kwargs, result, token):
    return {"fw": _accel_label(args[0])}


def _launch_before(args):
    return args[0].clock.elapsed


def _launch_attrs(args, kwargs, result, token):
    interface = args[0]
    cost = args[4] if len(args) > 4 else kwargs["cost"]
    return {
        "fw": _accel_label(interface),
        "sim": interface.clock.elapsed - token,
        "flops": float(cost.flops),
    }


_launch_attrs.before = _launch_before  # type: ignore[attr-defined]


def _pack_attrs(args, kwargs, result, token):
    from repro.cluster import makespan_lower_bound

    return {"lower_bound": makespan_lower_bound(args[0], args[1])}


EXTRACTORS: Dict[str, Callable] = {
    "BeagleInstance.update_partials": _ops_attrs,
    "BeagleBackend.propose_eval": _backend_attrs,
    "BeagleBackend.restore": _backend_attrs,
    "MarkovChain.step": _step_attrs,
    "InstancePool.acquire": _acquire_attrs,
    "HardwareInterface.launch": _launch_attrs,
    "pack_shards": _pack_attrs,
}


class Instrumentation:
    """Install span wrappers on every layer; restore the originals on exit.

    ``LabelledWorkerPool.submit`` is wrapped specially: the function it
    hands to a worker thread is itself wrapped, so the work it runs is a
    span (named after that function, in that function's layer) whose
    parent is the submitting span, and whose ``queued`` attribute is the
    hand-off time.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._undo: List[Callable[[], None]] = []

    def __enter__(self) -> "Instrumentation":
        for layer, paths in LAYER_CLASSES.items():
            for path in paths:
                self._wrap_class(_resolve(path), layer)
        for layer, paths in LAYER_FUNCTIONS.items():
            for path in paths:
                self._wrap_function(path, layer)
        self._wrap_submit()
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(cls.__dict__.items()):
            if not isinstance(value, types.FunctionType):
                continue
            if attr.startswith("_") and attr != "__init__":
                continue
            if cls.__name__ == "LabelledWorkerPool" and attr == "submit":
                continue
            name = f"{cls.__name__}.{attr}"
            attrs = EXTRACTORS.get(name)
            if attrs is None and layer == "accel":
                attrs = _accel_attrs
            self._set(cls, attr, self.rec.wrap(
                value, name, layer, wait=name in WAITS, attrs=attrs,
            ))

    def _wrap_function(self, path: str, layer: str) -> None:
        original = _resolve(path)
        name = path.partition(":")[2]
        wrapped = self.rec.wrap(original, name, layer,
                                attrs=EXTRACTORS.get(name))
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def _wrap_submit(self) -> None:
        from repro.sched.workers import LabelledWorkerPool

        rec = self.rec
        original = LabelledWorkerPool.__dict__["submit"]

        def submit(pool, label, fn, *args, **kwargs):
            queued = _perf()
            parent = rec.current()
            module = getattr(fn, "__module__", "") or ""
            layer = module.split(".")[1] if module.startswith("repro.") \
                else "bench"
            task_name = getattr(fn, "__qualname__", repr(fn))
            ticket = next(
                (a for a in args if hasattr(a, "submitted_at")), None
            )

            def task_attrs(a, k, result, token):
                out = {"queued": queued}
                if ticket is not None:
                    out["submitted"] = ticket.submitted_at
                return out

            task = rec.wrap(fn, task_name, layer, attrs=task_attrs,
                            parent=parent)
            return original(pool, label, task, *args, **kwargs)

        self._set(LabelledWorkerPool, "submit",
                  rec.wrap(submit, "LabelledWorkerPool.submit", "sched"))


# -- analysis ----------------------------------------------------------------

def attribute(spans: List[tuple]) -> List[float]:
    """Exclusive wall time of every span (see module docstring)."""
    events = []
    for i, span in enumerate(spans):
        # Starts: outer span first on ties; ends: inner span first.
        events.append((span[T0], 1, -span[T1], i))
        events.append((span[T1], 0, -span[T0], i))
    events.sort()
    stacks: Dict[int, List[int]] = {}
    own = [0.0] * len(spans)
    prev: Optional[float] = None
    for t, is_start, _, i in events:
        if prev is not None and t > prev:
            leaves = [stack[-1] for stack in stacks.values() if stack]
            working = [j for j in leaves if not spans[j][WAIT]] or leaves
            if working:
                share = (t - prev) / len(working)
                for j in working:
                    own[j] += share
        prev = t
        stack = stacks.setdefault(spans[i][TID], [])
        if is_start:
            stack.append(i)
        elif stack and stack[-1] == i:
            stack.pop()
        else:
            stack.remove(i)
    return own


def layer_self(spans: List[tuple], own: List[float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        out[span[LAYER]] = out.get(span[LAYER], 0.0) + seconds
    return out
