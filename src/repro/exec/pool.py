"""Persistent worker pool for chunked fault simulation.

The PR-2 scheduler built a fresh ``ProcessPoolExecutor`` per ``run``
call, so every fault simulation paid process spawn plus netlist /
pattern-set pickling per shard — at small shard sizes the pool was a
*pessimization* (0.76x sequential on the recorded benchmark).  This
module replaces it with a pool that is created **once per campaign**:

* **Workers persist across runs.**  Each worker process is primed with
  heavyweight state exactly once per *context* (netlist + engine,
  shipped as a one-shot serialized blob) and once per
  *pattern set*; after that, chunk jobs carry only canonical fault ids,
  so steady-state IPC per job is tiny.
* **Chunk streaming with dynamic sizing.**  A run's fault list is cut
  into several chunks per worker (:data:`CHUNKS_PER_WORKER`) and streamed:
  each worker holds a small dispatch window and receives the next chunk
  as soon as it returns one, so an unlucky slow chunk no longer idles
  the other workers the way one-shard-per-worker splitting did.
* **No drop state in the workers.**  Fault dropping is applied by the
  caller before a run: under dropping, the pipeline's stage-3 worklist
  is the fault report's remaining list, so an already-dropped fault
  never reaches a chunk.  Workers are stateless with respect to
  dropping, which is what lets one pool serve consecutive campaigns.
* **Deterministic reconciliation.**  Chunks are contiguous slices of
  the caller's fault list; a worker sends back only its chunk's first
  detections, and they are merged by slice position, so the merged
  :class:`~repro.faults.fault_sim.FaultSimResult` is bit-identical to
  the sequential run.  A chunk's result reaches the merge at most once:
  a dead worker's pipe is closed before its orphans are requeued, a
  worker that reports an error sends no result, and a failed dispatch
  enqueues nothing; a result for a job already merged is skipped.
* **Fault isolation.**  A worker that dies mid-run (OOM-kill, crash)
  has its in-flight chunks requeued onto the surviving workers; dead
  workers are respawned at the next run.  A chunk that keeps failing
  (poisoned input) is retried on a different worker and finally
  simulated inline in the parent; if even that fails, the run raises
  :class:`~repro.errors.SchedulerError` (a ``ReproError``, so campaign
  per-PTP isolation catches it) and the pool stays usable.  Each worker
  sends its results through a pipe of its own: a result queue shared by
  all workers is guarded by one write lock, and a worker killed while
  holding it would block every surviving worker's results forever.

The pool is lazy: constructing :class:`WorkerPool` allocates nothing —
queues and processes appear at the first :meth:`simulate` call, so a
pool-configured scheduler on a restricted platform (no fork, no
semaphores) degrades to inline execution without ever touching
``multiprocessing``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import time
import traceback

from ..errors import SchedulerError

#: Dynamic chunk sizing targets this many chunks per worker, so a slow
#: chunk leaves the other workers something to stream.
CHUNKS_PER_WORKER = 4

#: Dynamic chunk sizing never cuts chunks smaller than this (per-chunk
#: dispatch overhead would dominate).
MIN_AUTO_CHUNK = 16

#: Times a failing chunk is requeued onto another worker before the
#: parent simulates it inline.
MAX_RETRIES = 1

#: How long the parent waits on the result pipes before polling worker
#: liveness (seconds).  Only latency of *death detection*, not of results.
_POLL_SECONDS = 0.1


def _stats_delta(simulator, before):
    """Propagation-counter delta of *simulator* since snapshot *before*."""
    return {key: value - before.get(key, 0)
            for key, value in simulator.stats.items()}


def _release_pipes(worker):
    """Close a worker's result pipe and release its task queue WITHOUT
    joining the queue's feeder thread.

    A killed worker leaves its task pipe unread, and sibling workers
    forked before it died still hold the pipe's read end open — so the
    parent's queue feeder thread can sit blocked in a pipe write forever
    instead of getting EPIPE.  ``multiprocessing``'s exit finalizer joins
    feeder threads by default, which would deadlock interpreter shutdown;
    ``cancel_join_thread`` opts this queue out (dropping undelivered
    messages is fine — the recipient is dead).
    """
    worker.results.close()
    try:
        worker.tasks.cancel_join_thread()
        worker.tasks.close()
    except (OSError, ValueError):
        pass


# -- worker process side ----------------------------------------------------

class _WorkerState:
    """Per-process caches: contexts and each context's latest pattern
    set (a new prime replaces the old set)."""

    def __init__(self):
        self.contexts = {}   # ctx_id -> (simulator, canonical FaultList)
        self.patterns = {}   # ctx_id -> (pat_id, PatternSet)


def _prime_context(state, ctx_id, netlist, engine):
    from ..faults.fault import FaultList
    from ..faults.fault_sim import FaultSimulator

    simulator = FaultSimulator(netlist, engine=engine)
    canonical = FaultList(netlist)
    state.contexts[ctx_id] = (simulator, canonical)


def _prime_patterns(state, ctx_id, pat_id, packed, count):
    from ..netlist.simulator import PatternSet

    simulator, __ = state.contexts[ctx_id]
    state.patterns[ctx_id] = (pat_id,
                              PatternSet(simulator.netlist, count, packed))


def _run_chunk(state, ctx_id, pat_id, entries):
    """Simulate one chunk; returns (firsts, busy, stats).

    *entries* mixes canonical fault ids (ints) with literal
    :class:`StuckAtFault` objects (faults outside the canonical collapsed
    enumeration).
    """
    from ..faults.fault import FaultList

    simulator, canonical = state.contexts[ctx_id]
    primed_id, patterns = state.patterns[ctx_id]
    if primed_id != pat_id:
        raise SchedulerError("chunk for pattern set {} but set {} is "
                             "primed".format(pat_id, primed_id))
    faults = [canonical[entry] if isinstance(entry, int) else entry
              for entry in entries]
    before = dict(simulator.stats)
    started = time.perf_counter()
    result = simulator.run(patterns,
                           FaultList(simulator.netlist, faults))
    busy = time.perf_counter() - started
    return result.first_detection, busy, _stats_delta(simulator, before)


def _worker_main(worker_id, tasks, results):
    """Worker loop: prime contexts/patterns, send chunk results down the
    *results* connection."""
    state = _WorkerState()
    while True:
        message = tasks.get()
        tag = message[0]
        if tag == "stop":
            break
        job_id = None
        try:
            if tag == "context":
                __, ctx_id, netlist, engine = message
                started = time.perf_counter()
                _prime_context(state, ctx_id, netlist, engine)
                results.send(("primed", worker_id, ctx_id,
                              time.perf_counter() - started))
            elif tag == "patterns":
                __, ctx_id, pat_id, packed, count = message
                _prime_patterns(state, ctx_id, pat_id, packed, count)
            elif tag == "chunk":
                __, job_id, ctx_id, pat_id, entries = message
                payload = _run_chunk(state, ctx_id, pat_id, entries)
                results.send(("result", worker_id, job_id) + payload)
        except Exception:
            results.send(("error", worker_id, job_id,
                          traceback.format_exc()))


# -- parent side ------------------------------------------------------------

class _Context:
    """Parent-side registry entry for one (netlist, engine)."""

    __slots__ = ("ctx_id", "netlist", "engine", "index", "pattern")

    def __init__(self, ctx_id, netlist, engine, index):
        self.ctx_id = ctx_id
        self.netlist = netlist
        self.engine = engine
        self.index = index          # canonical fault -> id
        self.pattern = None         # latest (patterns, pat_id)

    def matches(self, netlist, engine):
        return self.netlist is netlist and self.engine == engine


class _Worker:
    """Parent-side handle of one worker process and its primed state."""

    __slots__ = ("worker_id", "process", "tasks", "results", "contexts",
                 "patterns", "inflight")

    def __init__(self, worker_id, process, tasks, results):
        self.worker_id = worker_id
        self.process = process
        self.tasks = tasks
        self.results = results      # receiving end of the result pipe
        self.contexts = set()       # primed ctx_ids
        self.patterns = {}          # ctx_id -> primed pat_id
        self.inflight = {}          # job_id -> _Job

    @property
    def alive(self):
        return self.process is not None and self.process.is_alive()


class _Job:
    """One chunk job: a contiguous slice of the run's fault list."""

    __slots__ = ("job_id", "start", "entries", "retries")

    def __init__(self, job_id, start, entries):
        self.job_id = job_id
        self.start = start
        self.entries = entries
        self.retries = 0


class WorkerPool:
    """Campaign-lifetime pool of fault-simulation worker processes.

    Args:
        workers: target number of worker processes (>= 1).
        metrics: optional :class:`~repro.exec.metrics.RunMetrics`; pool
            events land in its ``pool`` counter group (``pool.*``).
    """

    def __init__(self, workers, metrics=None):
        if workers < 1:
            raise SchedulerError("pool needs at least one worker, got {}"
                                 .format(workers))
        self.target_workers = workers
        self.metrics = metrics
        self._mp = None             # multiprocessing context, once started
        self._workers = []
        self._contexts = []
        self._ids = itertools.count()
        self._closed = False

    # -- bookkeeping -----------------------------------------------------

    def _bump(self, event, amount=1):
        if self.metrics is not None:
            self.metrics.bump("pool." + event, amount)

    @property
    def started(self):
        return self._mp is not None

    def context_for(self, simulator):
        """The pool's :class:`_Context` for *simulator* (registered on
        first sight; identity is the netlist object + engine, so one
        pool serves every module of a campaign)."""
        for context in self._contexts:
            if context.matches(simulator.netlist, simulator.engine):
                return context
        from ..faults.fault import FaultList

        canonical = FaultList(simulator.netlist)
        index = {fault: i for i, fault in enumerate(canonical)}
        context = _Context(next(self._ids), simulator.netlist,
                           simulator.engine, index)
        self._contexts.append(context)
        return context

    # -- lifecycle -------------------------------------------------------

    def _start(self):
        """Allocate the multiprocessing context (first simulate only)."""
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else None
        self._mp = multiprocessing.get_context(method)

    def _spawn_worker(self):
        """Start one worker (raises OSError-family on restricted
        platforms)."""
        worker_id = next(self._ids)
        tasks = self._mp.Queue()
        results, sender = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_worker_main, args=(worker_id, tasks, sender),
            daemon=True, name="repro-fault-sim-{}".format(worker_id))
        process.start()
        # The worker must hold the only send end, so that its death
        # mid-send reads as EOF rather than as a message that never ends.
        sender.close()
        self._bump("workers_spawned")
        return _Worker(worker_id, process, tasks, results)

    def _ensure_workers(self):
        """Start the pool / replace dead workers up to the target count."""
        if self._closed:
            raise SchedulerError("worker pool is closed")
        if self._mp is None:
            self._start()
        survivors = []
        for worker in self._workers:
            if worker.alive:
                survivors.append(worker)
            else:
                self._bump("worker_deaths")
                _release_pipes(worker)
        self._workers = survivors
        while len(self._workers) < self.target_workers:
            self._workers.append(self._spawn_worker())
        return self._workers

    def close(self):
        """Stop every worker and release the queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                if worker.alive:
                    worker.tasks.put(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            if worker.process is None:
                continue
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1)
        for worker in self._workers:
            _release_pipes(worker)
        self._workers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # -- priming ---------------------------------------------------------

    def _pattern_id(self, context, patterns):
        """Id of *patterns* within *context*.  Only the context's latest
        set is kept: a different set object gets a fresh id and replaces
        it, so no earlier set stays pinned.  Pattern sets never change, so
        the same object always needs the same priming."""
        entry = context.pattern
        if entry is not None and entry[0] is patterns:
            return entry[1]
        pat_id = next(self._ids)
        context.pattern = (patterns, pat_id)
        return pat_id

    def _prime(self, worker, context, patterns, pat_id):
        """Send *worker* whatever context/pattern state it lacks."""
        if context.ctx_id not in worker.contexts:
            worker.tasks.put(("context", context.ctx_id, context.netlist,
                              context.engine))
            worker.contexts.add(context.ctx_id)
            self._bump("contexts_shipped")
        if worker.patterns.get(context.ctx_id) != pat_id:
            # A plain dict: the set's read-only view does not pickle.
            worker.tasks.put(("patterns", context.ctx_id, pat_id,
                              dict(patterns.packed), patterns.count))
            worker.patterns[context.ctx_id] = pat_id
            self._bump("patterns_shipped")

    # -- the run ---------------------------------------------------------

    def simulate(self, simulator, patterns, fault_list):
        """Chunked pooled equivalent of ``simulator.run(patterns,
        fault_list)``.

        Returns ``(firsts, chunk_busy, stats)`` where *firsts* are the
        first detections in fault-list order, bit-identical to the
        sequential run's, *chunk_busy* is the per-chunk worker busy time,
        and *stats* the summed propagation-counter deltas.
        """
        workers = self._ensure_workers()
        context = self.context_for(simulator)
        pat_id = self._pattern_id(context, patterns)
        faults = list(fault_list)
        entries = [context.index.get(fault, fault) for fault in faults]

        total = len(entries)
        target = max(1, len(workers) * CHUNKS_PER_WORKER)
        size = max(MIN_AUTO_CHUNK, -(-total // target))
        jobs = {}
        for start in range(0, total, size):
            job = _Job(next(self._ids), start, entries[start:start + size])
            jobs[job.job_id] = job

        firsts = [None] * total
        busy = []
        stats = {}
        unassigned = list(jobs.values())
        unassigned.reverse()        # pop() dispatches in fault-list order
        done = set()

        def dispatch(worker, job):
            try:
                self._prime(worker, context, patterns, pat_id)
                worker.tasks.put(("chunk", job.job_id, context.ctx_id,
                                  pat_id, job.entries))
            except (OSError, ValueError, BrokenPipeError):
                self._mark_dead(worker)
                unassigned.append(job)
                return False
            worker.inflight[job.job_id] = job
            self._bump("chunks_dispatched")
            return True

        def run_inline(job):
            """Last-resort parent-side simulation of one chunk."""
            from ..faults.fault import FaultList

            chunk_faults = faults[job.start:job.start + len(job.entries)]
            try:
                result = simulator.run(
                    patterns, FaultList(simulator.netlist, chunk_faults))
            except Exception as exc:
                raise SchedulerError(
                    "fault chunk at offset {} failed on {} worker(s) and "
                    "inline: {!r}".format(job.start, job.retries, exc)
                ) from exc
            firsts[job.start:job.start + len(job.entries)] = \
                result.first_detection
            self._bump("chunks_inline")

        def absorb(job, chunk_firsts, chunk_busy, chunk_stats):
            busy.append(chunk_busy)
            for key, value in chunk_stats.items():
                stats[key] = stats.get(key, 0) + value
            firsts[job.start:job.start + len(chunk_firsts)] = chunk_firsts

        # Prefill a two-deep window per worker so nobody idles while the
        # parent merges, then stream: one fresh chunk per finished chunk.
        for __ in range(2):
            for worker in list(workers):
                if unassigned and worker.alive:
                    dispatch(worker, unassigned.pop())

        while len(done) < len(jobs):
            # Reap eagerly, not only on poll timeout: a survivor that
            # streams results fast would otherwise starve death detection
            # and leave the dead worker's orphans waiting for the end.
            if any(not w.alive for w in self._workers):
                self._reap(unassigned)
            live = [w for w in self._workers if w.alive]
            inflight_total = sum(len(w.inflight) for w in live)
            if not live or (not inflight_total and not unassigned):
                # No worker can make progress: finish inline (the result
                # stays bit-identical; only the execution venue changes).
                for job in list(jobs.values()):
                    if job.job_id not in done:
                        run_inline(job)
                        done.add(job.job_id)
                break
            if not inflight_total and unassigned:
                for worker in live:
                    if unassigned:
                        dispatch(worker, unassigned.pop())
                continue
            message = self._receive(live)
            if message is None:
                self._reap(unassigned)
                continue
            tag = message[0]
            if tag == "primed":
                __, __, __, seconds = message
                self._bump("worker_init_events")
                self._bump("worker_init_seconds", seconds)
                continue
            if tag == "error":
                __, worker_id, job_id, text = message
                worker = self._worker_by_id(worker_id)
                job = jobs.get(job_id)
                if worker is not None and job_id in worker.inflight:
                    del worker.inflight[job_id]
                if job is None or job_id in done:
                    continue
                job.retries += 1
                self._bump("chunk_errors")
                if job.retries <= MAX_RETRIES:
                    # Prefer a different worker for the retry.
                    others = [w for w in self._workers
                              if w.alive and w is not worker]
                    target = others[0] if others else (
                        worker if worker is not None and worker.alive
                        else None)
                    self._bump("chunks_requeued")
                    if target is None or not dispatch(target, job):
                        unassigned.append(job)
                else:
                    run_inline(job)
                    done.add(job_id)
                continue
            if tag != "result":
                continue
            __, worker_id, job_id = message[:3]
            payload = message[3:]
            worker = self._worker_by_id(worker_id)
            if worker is not None:
                worker.inflight.pop(job_id, None)
                if unassigned and worker.alive:
                    dispatch(worker, unassigned.pop())
            job = jobs.get(job_id)
            if job is None or job_id in done:
                continue            # an earlier run's, or already merged
            absorb(job, *payload)
            done.add(job_id)
        return firsts, busy, stats

    def _receive(self, workers):
        """The next message from any of *workers*, or None when none
        arrives within :data:`_POLL_SECONDS` or a worker died mid-send."""
        pipes = {worker.results: worker for worker in workers}
        ready = multiprocessing.connection.wait(list(pipes),
                                                timeout=_POLL_SECONDS)
        for pipe in ready:
            try:
                return pipe.recv()
            except (EOFError, OSError):
                # A broken pipe means a dead worker; make sure its
                # process is gone so that _reap requeues its chunks.
                worker = pipes[pipe]
                worker.process.kill()
                worker.process.join(timeout=5)
        return None

    # -- failure handling ------------------------------------------------

    def _worker_by_id(self, worker_id):
        for worker in self._workers:
            if worker.worker_id == worker_id:
                return worker
        return None

    def _mark_dead(self, worker):
        if worker in self._workers:
            self._workers.remove(worker)
            self._bump("worker_deaths")
        _release_pipes(worker)

    def _reap(self, unassigned):
        """Requeue the in-flight chunks of workers that died mid-run."""
        for worker in list(self._workers):
            if worker.alive:
                continue
            orphans = list(worker.inflight.values())
            worker.inflight.clear()
            self._mark_dead(worker)
            if orphans:
                self._bump("chunks_requeued", len(orphans))
                unassigned.extend(reversed(orphans))
