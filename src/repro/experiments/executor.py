"""Serial and parallel execution of run specs.

Every run is deterministic in *virtual* time (the simulation kernel is a
seeded, single-threaded event queue), and every run executes on a pinned
thread with a pinned recursion limit (:func:`run_with_stable_stack`), in
this process or in a worker.  So each run starts from the same stack depth
wherever it executes, and fanning runs out across ``multiprocessing``
workers changes wall-clock time only: the results are bit-identical to a
serial execution regardless of scheduling, even for runs that recurse to
the limit.  That property is what makes the parallel executor safe to use
for paper-style sweeps — and it is asserted by the test-suite.

Two consumption styles:

* :func:`execute_many` — returns the full result list in the order of its
  ``runs`` argument, for any worker count.
* :func:`execute_stream` — a generator yielding ``(index, result)`` pairs in
  *completion* order when parallel, calling an optional
  ``progress(done, total)`` after each run.  Long sweeps stream into
  chunked sinks without holding every result in memory, and the index lets
  order-sensitive consumers reassemble the input order.

Parallel runs execute on one pool: plain ``multiprocessing.Process``
workers, each on its own duplex pipe, multiplexed with ``connection.wait``.
The parent can kill any worker, so the same pool carries the per-run
watchdog and retry of :mod:`repro.experiments.resilience`, and a worker
that dies loses only its in-flight run instead of hanging the stream.
Each stream forks its own workers and stops them when it ends, so workers
always see the scenario registry as it was when the stream started.
"""

from __future__ import annotations

import heapq
import multiprocessing
import queue
import sys
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, WorkerError
from repro.experiments.registry import get_scenario
from repro.experiments.sweep import RunSpec

__all__ = [
    "RunResult",
    "execute_run",
    "execute_run_captured",
    "execute_many",
    "execute_stream",
    "run_with_stable_stack",
    "shutdown_pool",
]

ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class RunResult:
    """The outcome of one run: the spec that produced it plus its result dict."""

    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    result: Dict[str, Any]

    @property
    def run_id(self) -> str:
        """The stable identifier of the run that produced this result."""
        return RunSpec(self.scenario, self.params).run_id


def execute_run(run: RunSpec) -> RunResult:
    """Resolve ``run.scenario`` in the registry and execute it."""
    entry = get_scenario(run.scenario)
    result = entry.execute(run.params_dict)
    return RunResult(scenario=run.scenario, params=run.params, result=result)


def execute_run_captured(run: RunSpec) -> RunResult:
    """Like :func:`execute_run`, but a failing run *is* a result.

    Any :class:`~repro.errors.ReproError` the run raises — a deadlocked
    kernel after crashing beyond ``f``, a timeout, a configuration the
    builder rejects — comes back as ``{"error": {"type", "message"}}``
    instead of propagating.  Chaos campaigns deliberately sample
    configurations that kill the run; with plain :func:`execute_run` the
    first such run would tear down the whole parallel stream.
    The captured dict is deterministic (exception type and message only),
    so campaign reports stay byte-identical across serial and parallel
    execution.

    Non-:class:`~repro.errors.ReproError` exceptions are captured too —
    a ``RecursionError`` from an LHS-sampled config is a finding, not a
    reason to lose the campaign — but marked ``"unexpected": true`` so
    oracles and readers can tell a library-diagnosed failure from a bug
    the library never anticipated.  ``KeyboardInterrupt``/``SystemExit``
    (and other ``BaseException``\\ s) still propagate.
    """
    from repro.errors import ReproError

    try:
        return execute_run(run)
    except ReproError as error:
        return RunResult(
            scenario=run.scenario,
            params=run.params,
            result={
                "scenario": run.scenario,
                "error": {"type": type(error).__name__, "message": str(error)},
            },
        )
    except Exception as error:
        return RunResult(
            scenario=run.scenario,
            params=run.params,
            result={
                "scenario": run.scenario,
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                    "unexpected": True,
                },
            },
        )


#: Python recursion limit on the pinned thread: the CPython default, pinned
#: so an embedder's own limit cannot move the abort point either.
_STABLE_STACK_LIMIT = 1000


def _pinned_main(inbox: "queue.SimpleQueue", outbox: "queue.SimpleQueue") -> None:
    """Body of a pinned thread: run each ``(fn, args)`` call it is sent.

    Every call starts from this frame, so from the same depth: the thread's
    own base frames plus this one, wherever the caller stands.  ``None``
    ends the thread.
    """
    while True:
        task = inbox.get()
        if task is None:
            return
        fn, args = task
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_STABLE_STACK_LIMIT)
        try:
            outbox.put((True, fn(*args)))
        except BaseException as exc:  # re-raised on the calling thread
            outbox.put((False, exc))
        finally:
            sys.setrecursionlimit(limit)


class _PinnedThread:
    """One calling thread's pinned thread, ended when this handle is freed."""

    def __init__(self) -> None:
        self.inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self.outbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=_pinned_main, args=(self.inbox, self.outbox),
            name="repro-stable-stack", daemon=True,
        )
        self.thread.start()
        weakref.finalize(self, self.inbox.put, None)


#: Each calling thread's :class:`_PinnedThread`; dropped with the caller.
_callers = threading.local()


def run_with_stable_stack(fn: Callable[..., Any], *args: Any) -> Any:
    """Call ``fn(*args)`` on a pinned thread with a pinned recursion limit.

    This is how every run executes: the executor calls it for each run,
    serial or parallel, and chaos campaigns call it for their baseline.
    A run that recurses to the interpreter's limit (the documented
    weight-gain refresh churn does, under sustained transfer load) aborts at
    a depth that depends on how deep the *caller's* stack already is — so
    the same run called directly produces a different trace, and can
    produce different results, at the REPL top level than inside a worker
    process or a test harness (the weight-gain refresh fix on the ROADMAP
    removes that dependence).  Each calling thread gets one long-lived
    thread that starts every call from the same base depth, and pinning
    the recursion limit removes the embedder's ``sys.setrecursionlimit`` as
    a variable, so a run gives the same results and trace wherever it
    executes.  Reusing the thread saves a thread start per run.
    Exceptions propagate unchanged.

    The thread is a daemon: a signal handler that raises in the calling
    thread (a sweep's graceful SIGINT/SIGTERM) interrupts the wait at once,
    and the still-running call cannot hold the process open at exit.  The
    caller's next call then gets a new thread.
    """
    pinned = getattr(_callers, "pinned", None)
    # Not alive: this is a forked worker, and the thread stayed behind.
    if pinned is None or not pinned.thread.is_alive():
        pinned = _callers.pinned = _PinnedThread()
    pinned.inbox.put((fn, args))
    try:
        ok, value = pinned.outbox.get()
    except BaseException:
        _callers.pinned = None  # still busy with this call
        raise
    if not ok:
        raise value
    return value


def _execute(run: RunSpec, capture_errors: bool) -> RunResult:
    execute = execute_run_captured if capture_errors else execute_run
    return run_with_stable_stack(execute, run)


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork inherits the already-populated registry; spawn re-imports only the
    # built-in catalogue inside execute_run via the registry's lazy loader.
    # Caveat: on spawn-only platforms (e.g. Windows), scenarios registered at
    # runtime by the caller are unknown to the workers — register them at
    # import time of a module the workers also import, or use workers=1.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def shutdown_pool() -> None:
    """Kept for embedders that reclaim workers explicitly; a no-op.

    Every parallel stream forks its own workers and stops them when the
    stream ends (exhausted, closed or garbage-collected), so no worker
    outlives the stream that needed it.
    """


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------

#: Backoff before re-dispatching a run whose worker died: the ``k``-th retry
#: waits ``_BACKOFF_BASE * _BACKOFF_FACTOR**(k-1)`` seconds, capped at
#: ``_BACKOFF_MAX`` — wall-clock pacing only, results are unaffected.
_BACKOFF_BASE = 0.05
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 2.0


def _backoff(attempt: int) -> float:
    """Seconds to wait before re-dispatching after ``attempt`` failures."""
    return min(_BACKOFF_BASE * _BACKOFF_FACTOR ** max(0, attempt - 1),
               _BACKOFF_MAX)


def _worker_main(conn: Any, parent_end: Any, capture_errors: bool) -> None:
    """Worker loop: receive ``(index, run)`` tasks, send back results.

    Runs until the parent closes the pipe or sends ``None``.  Exceptions a
    run raises are shipped back as pickled objects when possible (so the
    parent re-raises the original type) and as ``(name, text)`` otherwise;
    a result that does not pickle is reported the same way, as the
    pickling error.
    """
    # A forked worker inherits the parent's end of its own pipe.  Left open,
    # it would keep the worker waiting forever once the parent dies, since
    # the pipe would never reach end-of-file.
    parent_end.close()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if task is None:
            return
        index, run = task
        try:
            message: Tuple[Any, ...] = ("ok", index, _execute(run, capture_errors))
        except BaseException as exc:  # shipped to the parent, never lost
            message = ("raise", index, exc)
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return
        except Exception as error:  # the result or exception did not pickle
            failed = message[2] if message[0] == "raise" else error
            conn.send(("raise-text", index, type(failed).__name__, str(failed)))


class _PoolWorker:
    """One kill-capable worker process plus its duplex pipe and state."""

    def __init__(self, ctx: Any, capture_errors: bool) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, parent_conn, capture_errors),
            daemon=True, name="repro-worker",
        )
        self.process.start()
        child_conn.close()
        self.task: Optional[Tuple[int, RunSpec]] = None
        self.deadline: Optional[float] = None

    def assign(self, task: Tuple[int, RunSpec],
               run_timeout: Optional[float]) -> None:
        self.conn.send(task)
        self.task = task
        self.deadline = (
            time.monotonic() + run_timeout if run_timeout is not None else None
        )

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def stop(self) -> None:
        """Polite shutdown for idle workers; kill() for busy/hung ones."""
        if self.task is not None:
            self.kill()
            return
        try:
            self.conn.send(None)
            self.conn.close()
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join()


def _error_result(run: RunSpec, error: Dict[str, Any]) -> RunResult:
    """A captured-error result shaped like :func:`execute_run_captured`'s."""
    return RunResult(
        scenario=run.scenario,
        params=run.params,
        result={"scenario": run.scenario, "error": error},
    )


def _watchdog_result(run: RunSpec, run_timeout: float) -> RunResult:
    # Deterministic fields only: the configured timeout, not the measured
    # wall time, so journaled/reported bytes are stable.
    return _error_result(run, {
        "type": "WatchdogTimeout",
        "message": (f"run exceeded the per-run watchdog timeout "
                    f"({run_timeout:g}s wall-clock) and was killed"),
        "run_timeout": run_timeout,
    })


def _quarantine_result(run: RunSpec, attempts: int) -> RunResult:
    return _error_result(run, {
        "type": "WorkerCrashed",
        "message": (f"worker process died executing this run "
                    f"{attempts} time(s); configuration quarantined"),
        "attempts": attempts,
        "quarantined": True,
    })


def _execute_pending(
    pending: List[Tuple[int, RunSpec]],
    workers: int,
    capture_errors: bool,
    run_timeout: Optional[float] = None,
    max_attempts: int = 1,
    telemetry: Any = None,
    quarantine: Any = None,
) -> Iterator[Tuple[int, RunResult]]:
    """Execute ``(index, run)`` pairs; yield ``(index, result)`` pairs.

    With one worker and nothing to kill (no deadline, one attempt) the runs
    execute here, in order.  Otherwise they go to a pool of kill-capable
    worker processes, forked for this call and stopped when it ends, and
    come back in completion order.  Every index is yielded exactly once: as
    its result, as a ``WatchdogTimeout`` error (hung past ``run_timeout``)
    or as a ``WorkerCrashed`` error (its worker died ``max_attempts`` times;
    recorded in ``quarantine``, a :class:`~repro.experiments.resilience.
    Quarantine`, when one is given).  A worker death short of that
    re-dispatches the lost run after an exponential backoff.  ``telemetry``
    (a :class:`~repro.experiments.resilience.StreamTelemetry`, optional)
    counts retries, timeouts and quarantined runs.
    """
    if (run_timeout is None and max_attempts == 1
            and (workers == 1 or len(pending) <= 1)):
        for index, run in pending:
            yield index, _execute(run, capture_errors)
        return
    ctx = _pool_context()

    def spawn() -> _PoolWorker:
        return _PoolWorker(ctx, capture_errors)

    queue: deque = deque(pending)
    waiting: List[Tuple[float, int, RunSpec]] = []  # (ready_at, index, run)
    attempts: Dict[int, int] = {}
    pool = [spawn() for _ in range(max(1, min(workers, len(pending))))]

    def fail(worker: _PoolWorker) -> Iterator[Tuple[int, RunResult]]:
        """Handle a dead worker: respawn it, retry or quarantine its run."""
        index, run = worker.task  # type: ignore[misc]
        worker.kill()
        pool[pool.index(worker)] = spawn()
        made = attempts.get(index, 0) + 1
        attempts[index] = made
        if made >= max_attempts:
            result = _quarantine_result(run, made)
            if telemetry is not None:
                telemetry.quarantined += 1
            if quarantine is not None:
                quarantine.record(index, run, made,
                                  dict(result.result["error"]))
            yield index, result
        else:
            if telemetry is not None:
                telemetry.retries += 1
            heapq.heappush(
                waiting, (time.monotonic() + _backoff(made), index, run)
            )

    def dispatch() -> None:
        """Queue the retries that are due; give every idle worker a run."""
        now = time.monotonic()
        while waiting and waiting[0][0] <= now:
            _, index, run = heapq.heappop(waiting)
            queue.append((index, run))
        for worker in pool:
            if worker.task is None and queue:
                task = queue.popleft()
                try:
                    worker.assign(task, run_timeout)
                except (BrokenPipeError, OSError):
                    # Found dead at assignment (died after its last
                    # result): respawn and requeue, not an attempt.
                    worker.kill()
                    pool[pool.index(worker)] = spawn()
                    queue.appendleft(task)

    try:
        while queue or waiting or any(w.task is not None for w in pool):
            dispatch()
            busy = {worker.conn: worker for worker in pool
                    if worker.task is not None}
            if not busy:
                if waiting:
                    time.sleep(
                        max(0.0, min(waiting[0][0] - time.monotonic(), 0.05))
                    )
                continue
            tick = 0.1
            deadlines = [w.deadline for w in busy.values()
                         if w.deadline is not None]
            if deadlines:
                tick = min(tick, max(0.0, min(deadlines) - time.monotonic()))
            if waiting:
                tick = min(tick, max(0.0, waiting[0][0] - time.monotonic()))
            finished: List[Tuple[int, RunResult]] = []
            for conn in connection.wait(list(busy), timeout=tick):
                worker = busy[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    finished.extend(fail(worker))
                    continue
                worker.task = None
                worker.deadline = None
                if message[0] == "ok":
                    finished.append((message[1], message[2]))
                elif message[0] == "raise":
                    raise message[2]
                else:  # "raise-text": the original object did not pickle
                    raise WorkerError(f"{message[2]}: {message[3]}")
            now = time.monotonic()
            for worker in list(pool):
                if (worker.task is not None and worker.deadline is not None
                        and now >= worker.deadline):
                    index, run = worker.task
                    worker.kill()
                    pool[pool.index(worker)] = spawn()
                    if telemetry is not None:
                        telemetry.timeouts += 1
                    finished.append((index, _watchdog_result(run, run_timeout)))
            # Freed workers get their next run before the consumer spends
            # its time on these results, so they do not sit idle meanwhile.
            dispatch()
            yield from finished
    finally:
        for worker in pool:
            worker.stop()


def execute_stream(
    runs: Iterable[RunSpec],
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    capture_errors: bool = False,
) -> Iterator[Tuple[int, RunResult]]:
    """Yield ``(input_index, result)`` pairs as runs complete.

    Serial execution (``workers=1``) yields in input order; parallel
    execution yields in completion order.  Either way every input index
    appears exactly once, and ``progress`` (if given) is called with
    ``(completed, total)`` after each run.  With ``capture_errors`` a run
    raising :class:`~repro.errors.ReproError` yields an ``{"error": ...}``
    result instead of killing the stream (see :func:`execute_run_captured`)
    — the mode chaos campaigns stream in, where lethal configurations are
    findings rather than failures.  Every run executes via
    :func:`run_with_stable_stack`, serial or parallel.  A parallel stream
    whose worker process dies yields a ``WorkerCrashed`` error result for
    the lost run; the workers are stopped when the stream ends.
    """
    run_list = list(runs)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    total = len(run_list)
    done = 0
    for index, result in _execute_pending(
        list(enumerate(run_list)), workers, capture_errors
    ):
        done += 1
        if progress is not None:
            progress(done, total)
        yield index, result


def execute_many(
    runs: Iterable[RunSpec],
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    capture_errors: bool = False,
) -> List[RunResult]:
    """Execute every run, optionally fanning out across worker processes.

    Results come back in the order of ``runs`` for any worker count.
    """
    run_list = list(runs)
    results: List[Optional[RunResult]] = [None] * len(run_list)
    for index, result in execute_stream(
        run_list, workers=workers, progress=progress,
        capture_errors=capture_errors,
    ):
        results[index] = result
    return [result for result in results if result is not None]
