"""The supervised executor: leases, retries, speculation, checkpoints.

Every long parallel workload in the repository runs here — the
(video, scheme) experiment matrix (:func:`repro.runner.run_matrix`),
the fleet's stripe phases
(:func:`repro.fleet.supervision.run_fleet_supervised`) and the fleet
surrogate's per-title calibration
(:func:`repro.fleet.surrogate.calibrate`) — under one protocol:

* **Tasks and payloads** — a task has a stable ``key`` (``(phase,
  stripe id)`` for a fleet stripe, ``(video, scheme)`` for a matrix
  job).  A worker-side ``execute(task)`` returns a JSON payload, which
  the executor seals under a sha256 checksum of the canonical JSON of
  key and payload.  A parent-side ``accept(task, payload)`` validates
  and folds it: it returns False for a duplicate and raises on a
  payload it cannot trust.
* **Leases with heartbeat deadlines** — every attempt runs in a forked
  worker whose heartbeats renew its lease; a worker that stops
  heartbeating (wedged, stalled, swapped out) is killed and its task
  retried.  Crashes are detected directly from process exit.
* **One failure rule: retry only what a retry can change** — worker
  death, lease expiry, and a payload that fails its seal or ``accept``
  relaunch after seeded exponential backoff (:func:`backoff_delay`), at
  most ``max_retries`` times.  An exception raised by ``execute``
  itself is the task's outcome: tasks are deterministic, so a rerun
  would raise it again.
* **Speculative re-execution** — once enough tasks have completed to
  establish a median duration, a straggler gets a second attempt
  racing the first; the first accepted payload wins and the loser is
  killed.
* **Checkpoints** (:class:`Checkpoint`) — sealed payloads persist to one
  JSON file keyed by task, and a rerun resumes them through ``accept``.

Each task's outcome — payload accepted, exception raised, or retries
exhausted — goes back to the caller as a :class:`TaskOutcome`.

Timing here is deliberately *wall-clock*: leases and speculation react
to real elapsed time.  None of it can perturb a result — tasks are pure
and ``accept`` is idempotent — so every duration lands only in the
:class:`SupervisionReport`.  That is the headline invariant: *for any
seeded fault schedule under which a run completes, the accepted
payloads are exactly those of the undisturbed run.*
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from .errors import ReproError, RunnerError, ShardError
from .faults import ShardFault, ShardFaultPlan, hash_u01

#: A task's stable identity: ``(phase, stripe id)`` or ``(video, scheme)``.
TaskKey = Tuple[str, Union[int, str]]
#: What ``execute`` returns: a JSON-pure object.
Payload = Dict[str, Any]
#: A payload sealed under its key: ``{"key", "payload", "checksum"}``.
Sealed = Dict[str, Any]


class Task(Protocol):
    """Anything the executor can run: it only needs a stable key."""

    @property
    def key(self) -> TaskKey: ...


T = TypeVar("T", bound=Task)

#: Fork start method: workers inherit the (immutable) task context
#: without pickling and start in milliseconds.
_CTX = multiprocessing.get_context("fork")

#: Longest wait of the parent's event loop for a worker message or
#: exit; lease expiry, backoff and speculation are checked this often.
_POLL_SECONDS = 0.02
#: A running attempt is a straggler once it is this many times older
#: than the median completed task.
_SPECULATION_FACTOR = 3.0
#: Completed tasks needed before their median duration is trusted.
_SPECULATION_MIN_COMPLETED = 2
#: Speculative attempts may over-commit the pool by this many slots.  A
#: pool saturated with stragglers is exactly when speculation matters
#: most — and stragglers are (by definition) not making progress, so a
#: bounded spare is cheap.
_SPECULATION_SLACK = 1

#: Hash-site discriminator of retry backoff jitter (style of
#: :mod:`repro.faults`).
SITE_TASK_RETRY = 0x5348

_CHECKPOINT_VERSION = 2

#: What unsealing or ``accept`` raise for a payload they cannot trust.
_UNTRUSTED = (ReproError, KeyError, TypeError, ValueError, AttributeError)


def _now() -> float:
    """Wall-clock for lease/speculation bookkeeping only.

    Durations measured with this land exclusively in the
    :class:`SupervisionReport`; payloads stay pure.
    """
    return time.monotonic()  # repro-lint: disable=D002 leases and straggler detection must see real elapsed time; it never reaches a payload


def _label(key: TaskKey) -> str:
    """``"<key[0]>:<key[1]>"`` — how reports name a task."""
    return f"{key[0]}:{key[1]}"


def usable_workers(n_tasks: int) -> int:
    """Workers for ``n_tasks`` tasks: one per usable CPU, at most one
    per task.

    Usable CPUs are this process's affinity mask where the platform
    has one, so a container pinned to fewer CPUs than its host does
    not oversubscribe them.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


# -- backoff ---------------------------------------------------------------------


def backoff_delay(seed: int, site: int, index: int, attempt: int,
                  base: float, cap: float,
                  jitter: float = 0.5) -> float:
    """Seconds to wait before retry ``attempt`` (0-based) of ``index``.

    The schedule is ``min(cap, base * 2**attempt)`` scaled by a seeded
    jitter factor in ``[1 - jitter, 1)``: a pure splitmix64 hash of
    ``(seed, site, index, attempt)``, so concurrent retriers decorrelate
    instead of thundering together, and a rerun sleeps the same
    schedule.  A non-positive ``base`` disables backoff (returns 0.0).
    """
    if base <= 0.0:
        return 0.0
    scale = min(cap, base * (2.0 ** attempt))
    u = hash_u01(seed, site, index, attempt)
    return scale * (1.0 - jitter + jitter * u)


# -- sealing ---------------------------------------------------------------------


def checksum(key: TaskKey, payload: Payload) -> str:
    """sha256 of the canonical JSON of ``key`` and ``payload``."""
    canonical = json.dumps([list(key), payload], sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def seal(key: TaskKey, payload: Payload) -> Sealed:
    """``payload`` bound to its task key under a checksum."""
    return {"key": list(key), "payload": payload,
            "checksum": checksum(key, payload)}


def unseal(sealed: object) -> Tuple[TaskKey, Payload]:
    """Inverse of :func:`seal`; raises ``ValueError`` when the checksum
    disagrees (the payload or key changed after sealing)."""
    if not isinstance(sealed, dict):
        raise TypeError(f"sealed payload is {type(sealed).__name__}, "
                        "not an object")
    raw_key, payload = sealed["key"], sealed["payload"]
    if not (isinstance(raw_key, list) and len(raw_key) == 2
            and isinstance(raw_key[0], str)
            and isinstance(raw_key[1], (int, str))):
        raise TypeError(f"task key {raw_key!r} is not a (str, id) pair")
    if not isinstance(payload, dict):
        raise TypeError("payload is not an object")
    key: TaskKey = (raw_key[0], raw_key[1])
    if checksum(key, payload) != sealed["checksum"]:
        raise ValueError(f"task {_label(key)} checksum mismatch")
    return key, payload


def _damaged(sealed: Sealed) -> Sealed:
    """The CORRUPT fault: the payload altered after it was sealed."""
    return dict(sealed, payload={"damaged": sealed["payload"]})


# -- checkpoints -----------------------------------------------------------------


class Checkpoint:
    """Sealed payloads of completed tasks, persisted to one JSON file.

    A multi-hour run must survive a power cut without discarding
    completed work — and must also survive its *own checkpoint* being
    the casualty.  Loading therefore trusts nothing:

    * the top level must be a JSON object with the expected version;
    * the saved ``meta`` must equal this run's (a checkpoint written by
      a *different* run is never merged);
    * every entry must unseal — one bad entry poisons the file, since
      writes are atomic (tmp + rename) and partial validity therefore
      means corruption, not partial progress.

    An unusable file is moved to ``<path>.corrupt`` (recorded in
    ``quarantined``) and the run starts fresh; only a filesystem refusal
    raises.  Entries whose key is not in ``keys`` (a stale superset)
    are dropped and counted in ``stale``.
    """

    def __init__(self, path: str, meta: Dict[str, object],
                 keys: Iterable[TaskKey]) -> None:
        self.path = path
        self.meta = meta
        self.quarantined: Dict[str, str] = {}
        self.stale = 0
        self.entries: Dict[TaskKey, Sealed] = {}
        wanted = set(keys)
        for key, sealed in self._load().items():
            if key in wanted:
                self.entries[key] = sealed
            else:
                self.stale += 1

    def _load(self) -> Dict[TaskKey, Sealed]:
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            # Not corruption: the filesystem refused us, and a
            # quarantine rename would likely fail the same way.
            raise RunnerError(
                f"unreadable checkpoint {self.path!r}: {exc}") from exc
        except ValueError as exc:
            self._quarantine(f"not valid JSON: {exc}")
            return {}
        try:
            return self._parse(data)
        except ValueError as exc:
            self._quarantine(str(exc))
            return {}

    def _parse(self, data: object) -> Dict[TaskKey, Sealed]:
        if not isinstance(data, dict):
            raise ValueError(f"top level is {type(data).__name__}, not an "
                             "object")
        if data.get("version") != _CHECKPOINT_VERSION:
            raise ValueError(f"version {data.get('version')!r}, expected "
                             f"{_CHECKPOINT_VERSION}")
        if data.get("meta") != self.meta:
            raise ValueError(
                "written by a different run (saved meta "
                f"{data.get('meta')!r} != current {self.meta!r})")
        entries = data.get("completed", [])
        if not isinstance(entries, list):
            raise ValueError("'completed' is not a list")
        loaded: Dict[TaskKey, Sealed] = {}
        for index, entry in enumerate(entries):
            try:
                key, _ = unseal(entry)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"completed[{index}] does not decode: "
                    f"{type(exc).__name__}: {exc}") from exc
            loaded[key] = entry
        return loaded

    def _quarantine(self, reason: str) -> None:
        """Move the file aside; the evidence survives for post-mortems.

        Raises if even the rename fails (e.g. a read-only directory):
        then no fresh checkpoint could be written either, and silently
        running without durability would betray the caller's intent.
        """
        target = self.path + ".corrupt"
        try:
            os.replace(self.path, target)
        except OSError as exc:
            raise RunnerError(
                f"cannot quarantine checkpoint {self.path!r} to "
                f"{target!r}: {exc}") from exc
        self.quarantined[target] = reason

    def add(self, key: TaskKey, sealed: Sealed) -> None:
        """Record one completed task and rewrite the file atomically."""
        self.entries[key] = sealed
        data = {"version": _CHECKPOINT_VERSION, "meta": self.meta,
                "completed": [self.entries[k] for k in sorted(self.entries)]}
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        os.replace(tmp, self.path)


# -- protocol configuration and reporting ---------------------------------------


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervision protocol (all durations in seconds)."""

    workers: int = 2
    lease_seconds: float = 2.0
    heartbeat_seconds: float = 0.25
    max_retries: int = 4
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    speculate: bool = True
    speculation_min_seconds: float = 0.5
    #: Testing hook: raise RunnerError after this many tasks complete in
    #: one run — simulates a mid-run kill so tests can exercise
    #: checkpoint resume deterministically.
    halt_after_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ShardError(f"workers must be >= 1, got {self.workers}")
        if self.lease_seconds <= 0.0 or self.heartbeat_seconds <= 0.0:
            raise ShardError("lease_seconds and heartbeat_seconds must "
                             "be > 0")
        if self.heartbeat_seconds >= self.lease_seconds:
            raise ShardError(
                f"heartbeat_seconds ({self.heartbeat_seconds}) must be "
                f"< lease_seconds ({self.lease_seconds}) or every "
                "lease expires before its first renewal")
        if self.max_retries < 0:
            raise ShardError(
                f"max_retries must be >= 0, got {self.max_retries}")


@dataclass(frozen=True)
class TaskEvent:
    """One observed supervision event (for reports and debugging)."""

    kind: str
    task: str  # "<key[0]>:<key[1]>"
    attempt: int
    detail: str = ""

    def to_jsonable(self) -> Dict[str, object]:
        return dict(dataclasses.asdict(self))

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "TaskEvent":
        return cls(kind=str(data["kind"]), task=str(data["task"]),
                   attempt=int(data["attempt"]),  # type: ignore[arg-type]
                   detail=str(data.get("detail", "")))


@dataclass
class SupervisionReport:
    """What supervision observed: faults absorbed, work repeated.

    Deliberately *not* part of any result contract — two runs with
    different fault schedules produce different reports but identical
    accepted payloads.
    """

    workers: int = 0
    events: List[TaskEvent] = field(default_factory=list)
    crashes: int = 0
    lease_revocations: int = 0
    corrupt_rejected: int = 0
    worker_errors: int = 0
    duplicates_dropped: int = 0
    speculations: int = 0
    retries: int = 0
    resumed: int = 0
    stale_ignored: int = 0
    checkpoint_quarantined: Dict[str, str] = field(default_factory=dict)
    #: Wall seconds from a task's first launch to its accepted delivery,
    #: keyed ``"<key[0]>:<key[1]>"``.
    task_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def faults_absorbed(self) -> int:
        """Fault deliveries the protocol survived by retrying."""
        return self.crashes + self.lease_revocations + self.corrupt_rejected

    def p99_task_seconds(self, prefix: Optional[str] = None) -> float:
        """p99 of task completion times (optionally of the tasks whose
        key starts with ``prefix``, e.g. one fleet phase)."""
        values = sorted(
            seconds for label, seconds in self.task_seconds.items()
            if prefix is None or label.startswith(prefix + ":"))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(0.99 * len(values)))]

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form for the ``--json`` chaos artifact."""
        return {
            "workers": self.workers,
            "crashes": self.crashes,
            "lease_revocations": self.lease_revocations,
            "corrupt_rejected": self.corrupt_rejected,
            "worker_errors": self.worker_errors,
            "duplicates_dropped": self.duplicates_dropped,
            "speculations": self.speculations,
            "retries": self.retries,
            "resumed": self.resumed,
            "stale_ignored": self.stale_ignored,
            "checkpoint_quarantined": dict(self.checkpoint_quarantined),
            "faults_absorbed": self.faults_absorbed,
            "task_seconds": dict(self.task_seconds),
            "events": [event.to_jsonable() for event in self.events],
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]
                      ) -> "SupervisionReport":
        """Inverse of :meth:`to_jsonable` (rebuilds chaos artifacts;
        the derived ``faults_absorbed`` key is recomputed, not read)."""
        return cls(
            workers=int(data["workers"]),  # type: ignore[arg-type]
            events=[TaskEvent.from_jsonable(event)
                    for event in data.get("events", [])],  # type: ignore[union-attr]
            crashes=int(data["crashes"]),  # type: ignore[arg-type]
            lease_revocations=int(data["lease_revocations"]),  # type: ignore[arg-type]
            corrupt_rejected=int(data["corrupt_rejected"]),  # type: ignore[arg-type]
            worker_errors=int(data["worker_errors"]),  # type: ignore[arg-type]
            duplicates_dropped=int(data["duplicates_dropped"]),  # type: ignore[arg-type]
            speculations=int(data["speculations"]),  # type: ignore[arg-type]
            retries=int(data["retries"]),  # type: ignore[arg-type]
            resumed=int(data["resumed"]),  # type: ignore[arg-type]
            stale_ignored=int(data["stale_ignored"]),  # type: ignore[arg-type]
            checkpoint_quarantined={
                str(key): str(value) for key, value
                in data.get("checkpoint_quarantined", {}).items()},  # type: ignore[union-attr]
            task_seconds={
                str(key): float(value) for key, value  # type: ignore[arg-type]
                in data.get("task_seconds", {}).items()},  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class TaskOutcome:
    """How one task ended.

    ``error`` is None when a payload was accepted.  Otherwise it is the
    exception ``execute`` raised, or a :class:`~repro.errors.RunnerError`
    when the task failed more than ``max_retries`` times.
    """

    error: Optional[BaseException] = None
    #: Attempts lost to crashes, lease expiry or rejected payloads.
    failures: int = 0
    #: Taken from the checkpoint instead of run.
    resumed: bool = False


# -- worker side -----------------------------------------------------------------


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe's pickle round trip, else a
    :class:`~repro.errors.RunnerError` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except (pickle.PickleError, TypeError, AttributeError):
        return RunnerError(f"{type(exc).__name__}: {exc}")
    return exc


def _worker_main(conn: Connection, execute: Callable[[T], Payload],
                 task: T, index: int, attempt: int,
                 plan: Optional[ShardFaultPlan],
                 heartbeat_seconds: float) -> None:
    """Entry point of one task attempt in a worker process.

    Heartbeats on a daemon thread renew the parent-side lease; the
    main thread executes the task and ships the sealed payload.
    Injected faults reshape this attempt exactly as the seeded plan
    dictates (drawn at ``(key[0], task index, attempt)``), independent
    of scheduling.
    """
    phase = task.key[0]
    fault = (plan.stripe_fault(phase, index, attempt)
             if plan is not None else None)
    if fault is ShardFault.STALL:
        # A wedged worker: no heartbeats, no progress, no exit.  The
        # parent's lease revocation is the only way out (SIGKILL).
        while True:
            time.sleep(3600.0)
    send_lock = threading.Lock()
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_seconds):
            with send_lock:
                try:
                    conn.send(("heartbeat", attempt))
                except OSError:
                    return

    threading.Thread(target=_beat, daemon=True).start()
    try:
        if fault is ShardFault.SLOW and plan is not None:
            # A straggler, not a failure: heartbeats keep the lease
            # alive while the attempt dawdles.  Speculation's prey.
            time.sleep(plan.slow_seconds(phase, index, attempt))
        sealed = seal(task.key, execute(task))
        if fault is ShardFault.CORRUPT:
            sealed = _damaged(sealed)
        if fault is ShardFault.CRASH:
            # Dies *after* the compute, *before* the delivery — the
            # nastiest crash point: work done, result lost.
            os._exit(3)
        stop.set()
        with send_lock:
            conn.send(("result", sealed))
    except Exception as exc:  # repro-lint: disable=E002 isolation boundary: the task's exception is its outcome, shipped to the parent instead of dying silently
        stop.set()
        with send_lock:
            try:
                conn.send(("error", _portable(exc)))
            except OSError:
                pass


# -- parent side -----------------------------------------------------------------


@dataclass
class _Attempt:
    """Parent-side handle on one live worker attempt."""

    index: int
    process: "multiprocessing.process.BaseProcess"
    conn: Connection
    started: float
    deadline: float


class _TaskState(Generic[T]):
    """Supervision state of one task."""

    def __init__(self, task: T, index: int) -> None:
        self.task = task
        self.key = task.key
        self.label = _label(self.key)
        self.index = index
        self.outcome: Optional[TaskOutcome] = None
        self.attempts: Dict[int, _Attempt] = {}
        self.next_attempt = 0
        self.failures = 0
        self.not_before = 0.0
        self.first_started: Optional[float] = None


class Supervisor(Generic[T]):
    """Runs a list of pure tasks to their outcomes under the protocol.

    Single-threaded event loop in the parent, woken by a worker's
    message or exit (or every ``_POLL_SECONDS``): drain worker pipes,
    detect deaths and expired leases, relaunch with seeded backoff,
    speculate on stragglers, and hand unsealed payloads to ``accept``.

    Args:
        tasks: the tasks, keys unique; a task's position is its index
            in fault draws and backoff jitter.
        execute: worker side, ``task -> payload`` (must be pure).
        accept: parent side, folds one payload; False = duplicate,
            raises on an untrusted payload (the attempt is retried).
        config: protocol knobs.
        seed: seeds the backoff jitter.
        plan: optional seeded fault injection (the chaos harness).
        checkpoint: where completed payloads persist; its entries for
            these tasks are accepted instead of run.
        report: the report to extend (several runs may share one).
    """

    def __init__(self, tasks: Sequence[T], execute: Callable[[T], Payload],
                 accept: Callable[[T, Payload], bool],
                 config: SupervisorConfig, seed: int = 0,
                 plan: Optional[ShardFaultPlan] = None,
                 checkpoint: Optional[Checkpoint] = None,
                 report: Optional[SupervisionReport] = None) -> None:
        self.execute = execute
        self.accept = accept
        self.config = config
        self.seed = seed
        self.plan = plan
        self.checkpoint = checkpoint
        self.report = (report if report is not None
                       else SupervisionReport(workers=config.workers))
        self.states = [_TaskState(task, index)
                       for index, task in enumerate(tasks)]
        self.open = len(self.states)
        #: Durations of the tasks this run completed (speculation's
        #: median, and the halt hook's count).
        self.durations: List[float] = []

    # -- bookkeeping ----------------------------------------------------------

    def _event(self, kind: str, state: _TaskState[T], attempt: int,
               detail: str = "") -> None:
        self.report.events.append(TaskEvent(
            kind=kind, task=state.label, attempt=attempt, detail=detail))

    def _live_attempts(self) -> int:
        return sum(len(state.attempts) for state in self.states)

    def _finish(self, state: _TaskState[T], index: int, kind: str,
                outcome: TaskOutcome, detail: str = "") -> None:
        state.outcome = outcome
        self.open -= 1
        self._event(kind, state, index, detail)
        # The race is decided; losers are dead weight on the pool.
        for loser_index in list(state.attempts):
            self._reap(state.attempts.pop(loser_index))
            self._event("sibling_killed", state, loser_index)

    def _resume(self) -> None:
        """Accept checkpointed payloads instead of running their tasks."""
        if self.checkpoint is None:
            return
        for state in self.states:
            sealed = self.checkpoint.entries.get(state.key)
            if sealed is None:
                continue
            try:
                self.accept(state.task, sealed["payload"])
            except _UNTRUSTED:
                # The seal verified, but this run disagrees (e.g. code
                # drift): recompute.
                del self.checkpoint.entries[state.key]
                continue
            self.report.resumed += 1
            self._finish(state, -1, "resumed", TaskOutcome(resumed=True))

    # -- attempt lifecycle ----------------------------------------------------

    def _launch(self, state: _TaskState[T], now: float,
                speculative: bool = False) -> None:
        index = state.next_attempt
        state.next_attempt += 1
        recv_conn, send_conn = _CTX.Pipe(duplex=False)
        process = _CTX.Process(
            target=_worker_main,
            args=(send_conn, self.execute, state.task, state.index, index,
                  self.plan, self.config.heartbeat_seconds),
            daemon=True)
        process.start()
        send_conn.close()
        state.attempts[index] = _Attempt(
            index=index, process=process, conn=recv_conn, started=now,
            deadline=now + self.config.lease_seconds)
        if state.first_started is None:
            state.first_started = now
        self._event("speculate" if speculative else "launch", state,
                    index)
        if speculative:
            self.report.speculations += 1

    def _reap(self, attempt: _Attempt) -> None:
        if attempt.process.is_alive():
            attempt.process.kill()
        attempt.process.join(timeout=5.0)
        attempt.conn.close()

    def _fail_attempt(self, state: _TaskState[T], index: int, kind: str,
                      detail: str, now: float) -> None:
        """An attempt a retry can fix died: relaunch it, or give up."""
        self._reap(state.attempts.pop(index))
        self._event(kind, state, index, detail)
        state.failures += 1
        if kind == "crash":
            self.report.crashes += 1
        elif kind == "lease_revoked":
            self.report.lease_revocations += 1
        elif kind == "corrupt_rejected":
            self.report.corrupt_rejected += 1
        if state.attempts:
            return  # a sibling attempt is still racing
        if state.failures > self.config.max_retries:
            message = (f"task ({state.key[0]}, {state.key[1]}) failed "
                       f"{state.failures} times (> max_retries="
                       f"{self.config.max_retries}); last failure: "
                       f"{kind}: {detail}")
            self._finish(state, index, "gave_up", TaskOutcome(
                error=RunnerError(message), failures=state.failures))
            return
        delay = backoff_delay(self.seed, SITE_TASK_RETRY, state.index,
                              state.failures - 1,
                              base=self.config.backoff_base,
                              cap=self.config.backoff_cap)
        state.not_before = now + delay
        self.report.retries += 1
        self._event("retry_scheduled", state, state.next_attempt,
                    f"after {delay:.3f}s backoff")

    def _deliver(self, state: _TaskState[T], index: int, sealed: Any,
                 now: float) -> None:
        try:
            _, payload = unseal(sealed)
            fresh = self.accept(state.task, payload)
        except _UNTRUSTED as exc:
            self._fail_attempt(state, index, "corrupt_rejected", str(exc),
                               now)
            return
        self._reap(state.attempts.pop(index))
        if not fresh:
            self.report.duplicates_dropped += 1
            self._finish(state, index, "duplicate",
                         TaskOutcome(failures=state.failures))
            return
        if self.checkpoint is not None:
            self.checkpoint.add(state.key, sealed)
        if state.first_started is not None:
            seconds = now - state.first_started
            self.report.task_seconds[state.label] = seconds
            self.durations.append(seconds)
        self._finish(state, index, "result",
                     TaskOutcome(failures=state.failures))
        halt = self.config.halt_after_tasks
        if halt is not None and len(self.durations) >= halt:
            raise RunnerError(
                f"halted after {len(self.durations)} task(s) "
                "(halt_after_tasks testing hook)")

    def _drain(self, state: _TaskState[T], attempt: _Attempt,
               now: float) -> bool:
        """Process queued messages; False if the pipe is broken."""
        while True:
            try:
                if not attempt.conn.poll(0):
                    return True
                message = attempt.conn.recv()
            except (EOFError, OSError):
                return False
            kind = message[0]
            if kind == "heartbeat":
                attempt.deadline = now + self.config.lease_seconds
            elif kind == "result":
                self._deliver(state, attempt.index, message[1], now)
                return True
            elif kind == "error":
                # Deterministic: a retry would raise it again.
                self._reap(state.attempts.pop(attempt.index))
                self.report.worker_errors += 1
                self._finish(state, attempt.index, "worker_error",
                             TaskOutcome(error=message[1],
                                         failures=state.failures),
                             str(message[1]))
                return True

    # -- scheduling -----------------------------------------------------------

    def _poll_attempts(self, now: float) -> None:
        for state in self.states:
            for index in list(state.attempts):
                if state.outcome is not None:
                    break
                attempt = state.attempts.get(index)
                if attempt is None:
                    continue
                intact = self._drain(state, attempt, now)
                if state.outcome is not None or index not in state.attempts:
                    continue
                if not intact or not attempt.process.is_alive():
                    # One last drain: a worker that finished and
                    # exited may still have its result queued.
                    self._drain(state, attempt, now)
                    if (state.outcome is not None
                            or index not in state.attempts):
                        continue
                    self._fail_attempt(
                        state, index, "crash",
                        f"worker exited with code "
                        f"{attempt.process.exitcode} before "
                        "delivering", now)
                elif now > attempt.deadline:
                    self._fail_attempt(
                        state, index, "lease_revoked",
                        f"no heartbeat within "
                        f"{self.config.lease_seconds}s", now)

    def _launch_pending(self, now: float) -> None:
        slots = self.config.workers - self._live_attempts()
        for state in self.states:
            if slots <= 0:
                return
            if (state.outcome is not None or state.attempts
                    or state.not_before > now):
                continue
            self._launch(state, now)
            slots -= 1

    def _speculate(self, now: float) -> None:
        if not self.config.speculate:
            return
        if len(self.durations) < _SPECULATION_MIN_COMPLETED:
            return
        median = sorted(self.durations)[len(self.durations) // 2]
        threshold = max(self.config.speculation_min_seconds,
                        _SPECULATION_FACTOR * median)
        slots = (self.config.workers + _SPECULATION_SLACK
                 - self._live_attempts())
        for state in self.states:
            if slots <= 0:
                return
            if state.outcome is not None or len(state.attempts) != 1:
                continue
            attempt = next(iter(state.attempts.values()))
            if now - attempt.started > threshold:
                self._launch(state, now, speculative=True)
                slots -= 1

    def _wait(self) -> None:
        """Sleep until a live worker sends a message or exits, or for
        ``_POLL_SECONDS`` at most."""
        ready: List[Any] = []
        for state in self.states:
            for attempt in state.attempts.values():
                ready += (attempt.conn, attempt.process.sentinel)
        wait(ready, timeout=_POLL_SECONDS)

    def run(self) -> Dict[TaskKey, TaskOutcome]:
        """Drive every task to its outcome, keyed in task order.

        Raises:
            RunnerError: when called inside a worker of this executor,
                which as a daemonic process cannot fork workers.
        """
        if multiprocessing.current_process().daemon:
            raise RunnerError(
                "the supervised executor cannot run inside one of its "
                "own workers (a daemonic process cannot start workers)")
        self._resume()
        try:
            while self.open > 0:
                now = _now()
                self._poll_attempts(now)
                if self.open == 0:
                    break
                self._launch_pending(now)
                self._speculate(now)
                self._wait()
        finally:
            for state in self.states:
                for index in list(state.attempts):
                    self._reap(state.attempts.pop(index))
        return {state.key: state.outcome for state in self.states
                if state.outcome is not None}
