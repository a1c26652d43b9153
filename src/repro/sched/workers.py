"""Labelled single-thread worker pool shared by executor and server.

BEAGLE instances are not internally thread-safe for concurrent API
calls, so every scheduling layer in this library enforces the same
invariant: *exactly one in-flight evaluation per instance*, with overlap
only across instances.  :class:`LabelledWorkerPool` is that invariant as
a reusable object — one persistent ``max_workers=1`` executor per device
label, created on demand, retired individually on device loss, and torn
down idempotently.  :class:`repro.sched.ConcurrentExecutor` uses it for
multi-device evaluation; :class:`repro.serve.LikelihoodServer` uses it
to run batched tenant requests on pooled instances.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional

from repro.analysis import locksan

__all__ = ["LabelledWorkerPool"]


class LabelledWorkerPool:
    """One persistent single-thread worker per label, created on demand.

    Thread-safe: workers may be requested, retired, and shut down from
    different threads (the serving scheduler retires workers from its
    dispatch thread while clients are still submitting).
    """

    def __init__(self, thread_name_prefix: str = "hetero") -> None:
        self._prefix = thread_name_prefix
        self._state = locksan.scoped_name("workers.state")
        self._lock = locksan.instrument(
            threading.Lock(), locksan.scoped_name("workers.lock")
        )
        self._workers: Dict[str, ThreadPoolExecutor] = {}
        self._closed = False

    def submit(self, label: str, fn: Callable[..., Any],
               *args: Any, **kwargs: Any) -> "Future[Any]":
        """Queue ``fn`` on the label's worker, creating it on first use.

        The one hand-off point from a scheduling layer to its workers.
        """
        with self._lock:
            locksan.access(self._state)
            if self._closed:
                raise RuntimeError("worker pool has been shut down")
            worker = self._workers.get(label)
            if worker is None:
                worker = ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix=f"{self._prefix}-{label}",
                )
                self._workers[label] = worker
        return worker.submit(fn, *args, **kwargs)

    def retire(self, label: str, wait: bool = True) -> bool:
        """Release one label's worker (e.g. on device loss).

        Returns whether a worker existed.  The shutdown happens outside
        the pool lock so a slow in-flight task cannot block other labels.
        """
        with self._lock:
            locksan.access(self._state)
            worker = self._workers.pop(label, None)
        if worker is None:
            return False
        worker.shutdown(wait=wait)
        return True

    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker; idempotent and exception-safe.

        The closed flag flips before any teardown so a failure
        mid-release cannot re-trigger it; every worker is released even
        if one refuses to shut down cleanly, and the first error (if
        any) is re-raised at the end.
        """
        with self._lock:
            locksan.access(self._state)
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._workers.clear()
        first_error: Optional[BaseException] = None
        for worker in workers:
            try:
                worker.shutdown(wait=wait)
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "LabelledWorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
