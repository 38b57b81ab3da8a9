"""Stripe tasks, validated partials, and the idempotent merge plane.

This module is the *data plane* of supervised fleet execution: what a
shard worker computes (:func:`execute_stripe`), how the result is
shipped home (:class:`StripePartial`), how the parent decides whether
to trust it (:func:`validate_partial`), and how trusted partials fold
into a :class:`~repro.fleet.engine.FleetResult` (:class:`MergePlane`).
The control plane — processes, leases, heartbeats, retries,
speculation, the checksum seal on every payload in flight or in a
checkpoint — is the repository's executor (:mod:`repro.executor`),
driven by :mod:`repro.fleet.supervision`.

The design center is the bit-identity contract: a stripe that was
retried three times, speculated, and delivered twice must fold into the
result exactly once, and the folded result must equal the undisturbed
serial run byte for byte.  Three properties deliver that:

* **Stripe purity** — :func:`execute_stripe` is a pure function of
  ``(world, task)``; the population model re-draws chunks on demand, so
  any attempt by any process computes the identical partial.
* **Validation before merge** — a partial must match its task and
  satisfy the aggregate invariants (integer load diffs of the right
  shape, exactly the canonical cohort keys, the standard quantum,
  session counts that add up).  Corrupt partials are rejected *before*
  they can touch merge state.
* **Idempotent merging** — :class:`MergePlane` dedups by
  ``(phase, stripe id)``; duplicate deliveries are dropped, and because
  every aggregate merge is exactly commutative (integer state
  everywhere), arrival order cannot perturb a bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import FleetError, ShardError
from .cell import CellLoadAccumulator, ContentionField
from .engine import (
    CohortAggregate,
    FleetResult,
    _chunk_bounds,
    _stripes,
    cohort_keys,
    compute_load_stripe,
    compute_score_stripe,
)
from .population import PopulationModel, PopulationSpec
from .sketches import DEFAULT_QUANTUM

#: The two stripe phases, in execution order: pass 1 accumulates cell
#: load, pass 2 scores sessions against the finalized field.
PHASE_LOAD = "load"
PHASE_SCORE = "score"


@dataclass(frozen=True)
class StripeTask:
    """One unit of leased work: a phase and a stripe of chunk ids."""

    phase: str
    stripe_id: int
    chunks: Tuple[int, ...]

    @property
    def key(self) -> Tuple[str, int]:
        """The executor's task key."""
        return self.phase, self.stripe_id


@dataclass(frozen=True)
class StripeWorld:
    """Everything a worker needs to execute any stripe of one run.

    Immutable and shared by every attempt; for :data:`PHASE_SCORE`
    tasks, ``field`` must be the *globally finalized* contention field
    (or ``None`` for contention-free runs) so throttle factors are
    shard-independent.
    """

    spec: PopulationSpec
    seed: int
    bounds: Tuple[Tuple[int, int], ...]
    tables: Dict[str, np.ndarray]
    fps: float
    field: Optional[ContentionField] = None

    def stripe_sessions(self, task: StripeTask) -> int:
        """How many sessions ``task``'s chunks cover."""
        return sum(self.bounds[chunk][1] for chunk in task.chunks)


def plan_stripes(n_sessions: int, shards: int
                 ) -> Tuple[Tuple[Tuple[int, int], ...],
                            List[Tuple[int, ...]]]:
    """(chunk bounds, per-stripe chunk ids) for a run — the stripe plan
    shared verbatim by the serial fold and the supervised service."""
    bounds = tuple(_chunk_bounds(n_sessions))
    stripes = [tuple(r) for r in _stripes(len(bounds), shards)]
    return bounds, stripes


def make_tasks(phase: str, stripes: Sequence[Tuple[int, ...]]
               ) -> List[StripeTask]:
    """One :class:`StripeTask` per stripe for ``phase``."""
    return [StripeTask(phase=phase, stripe_id=stripe_id, chunks=chunks)
            for stripe_id, chunks in enumerate(stripes)]


@dataclass(frozen=True)
class StripePartial:
    """One stripe's result as shipped from worker to merge plane (the
    executor seals its JSON form against damage in flight)."""

    phase: str
    stripe_id: int
    n_sessions: int
    payload: Dict[str, object]

    def to_jsonable(self) -> Dict[str, object]:
        """Lossless plain-data form (the executor's payload)."""
        return {
            "phase": self.phase,
            "stripe_id": self.stripe_id,
            "n_sessions": self.n_sessions,
            "payload": self.payload,
        }

    @classmethod
    def from_jsonable(cls, data: object) -> "StripePartial":
        """Inverse of :meth:`to_jsonable`."""
        if not isinstance(data, dict):
            raise TypeError(f"partial is {type(data).__name__}, "
                            "not an object")
        payload = data["payload"]
        if not isinstance(payload, dict):
            raise TypeError("partial payload is not an object")
        return cls(phase=str(data["phase"]),
                   stripe_id=int(data["stripe_id"]),  # type: ignore[arg-type]
                   n_sessions=int(data["n_sessions"]),  # type: ignore[arg-type]
                   payload=payload)


def execute_stripe(world: StripeWorld, task: StripeTask) -> StripePartial:
    """Compute one stripe — pure in ``(world, task)``.

    Safe to run in any process, any number of times: every attempt
    produces the byte-identical partial.
    """
    model = PopulationModel(world.spec, world.seed)
    if task.phase == PHASE_LOAD:
        accumulator = compute_load_stripe(world.spec, model,
                                          world.bounds, task.chunks)
        payload: Dict[str, object] = accumulator.to_jsonable()
    elif task.phase == PHASE_SCORE:
        partial = compute_score_stripe(world.spec, model, world.bounds,
                                       task.chunks, world.field,
                                       world.tables, world.fps,
                                       world.seed)
        payload = {"cohorts": {key: agg.to_jsonable()
                               for key, agg in partial.items()}}
    else:
        raise ShardError(f"unknown stripe phase {task.phase!r}")
    return StripePartial(phase=task.phase, stripe_id=task.stripe_id,
                         n_sessions=world.stripe_sessions(task),
                         payload=payload)


# -- validation ----------------------------------------------------------------


def _validate_load_payload(spec: PopulationSpec,
                           payload: Dict[str, object]) -> None:
    diff = payload.get("diff")
    array = np.asarray(diff)
    expected = (spec.total_cells, spec.epoch_count + 1)
    if array.shape != expected:
        raise FleetError(f"load diff has shape {array.shape}, spec "
                         f"wants {expected}")
    if not issubclass(array.dtype.type, np.integer):
        raise FleetError("load diff is not integer-valued — the cell "
                         "field's exactness contract requires integer "
                         "demand")


def _validate_score_payload(spec: PopulationSpec, n_sessions: int,
                            payload: Dict[str, object]) -> None:
    cohorts = payload.get("cohorts")
    if not isinstance(cohorts, dict):
        raise FleetError("score payload has no cohorts object")
    expected_keys = cohort_keys(spec)
    if sorted(cohorts) != sorted(expected_keys):
        missing = sorted(set(expected_keys) - set(cohorts))
        extra = sorted(set(cohorts) - set(expected_keys))
        raise FleetError(f"cohort keys diverge from the spec (missing "
                         f"{missing}, unexpected {extra})")
    for key, data in cohorts.items():
        if not isinstance(data, dict):
            raise FleetError(f"cohort {key!r} is not an object")
        moments = data.get("moments")
        if not isinstance(moments, dict):
            raise FleetError(f"cohort {key!r} has no moments")
        for metric, summary in moments.items():
            if not isinstance(summary, dict):
                raise FleetError(
                    f"cohort {key!r} metric {metric!r} is malformed")
            quantum = float(summary.get("quantum", 0.0))  # type: ignore[arg-type]
            if quantum != DEFAULT_QUANTUM:
                raise FleetError(
                    f"cohort {key!r} metric {metric!r} uses quantum "
                    f"{summary.get('quantum')!r}, not the standard "
                    f"{DEFAULT_QUANTUM}")
            for field_name in ("count", "q_sum", "q_sum_sq"):
                if not isinstance(summary.get(field_name), int):
                    raise FleetError(
                        f"cohort {key!r} metric {metric!r} field "
                        f"{field_name!r} is not an exact integer")
            count = summary["count"]
            if not isinstance(count, int) or not (
                    0 <= count <= n_sessions):
                raise FleetError(
                    f"cohort {key!r} metric {metric!r} counts "
                    f"{count!r} sessions, stripe holds {n_sessions}")
    fleet_moments = cohorts["fleet"]["moments"]
    if "total_energy" not in fleet_moments:
        raise FleetError("fleet cohort is missing its total_energy "
                         "moments")
    fleet_count = fleet_moments["total_energy"]["count"]
    if fleet_count != n_sessions:
        raise FleetError(
            f"fleet cohort counts {fleet_count} sessions, stripe "
            f"holds {n_sessions} — sessions were lost or invented")


def validate_partial(world: StripeWorld, task: StripeTask,
                     partial: StripePartial) -> None:
    """Reject a partial that cannot be trusted into the merge plane.

    Raises :class:`~repro.errors.FleetError` naming the first violated
    invariant: task mismatch, or a payload that breaks the aggregates'
    exactness contract.
    """
    if (partial.phase, partial.stripe_id) != (task.phase,
                                              task.stripe_id):
        raise FleetError(
            f"partial ({partial.phase}, {partial.stripe_id}) does not "
            f"answer task ({task.phase}, {task.stripe_id})")
    expected_sessions = world.stripe_sessions(task)
    if partial.n_sessions != expected_sessions:
        raise FleetError(
            f"partial claims {partial.n_sessions} sessions, task "
            f"covers {expected_sessions}")
    if task.phase == PHASE_LOAD:
        _validate_load_payload(world.spec, partial.payload)
    elif task.phase == PHASE_SCORE:
        _validate_score_payload(world.spec, partial.n_sessions,
                                partial.payload)
    else:
        raise FleetError(f"unknown stripe phase {task.phase!r}")


# -- merge plane ---------------------------------------------------------------


class MergePlane:
    """Idempotent fold of stripe partials into one fleet result.

    Dedups by ``(phase, stripe id)``: the first delivery of a stripe
    merges, every later one is dropped and counted.  Because all
    aggregate merges are exactly commutative, the folded state is
    independent of delivery order — retries, speculation, and resumes
    cannot perturb it.
    """

    def __init__(self, spec: PopulationSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.duplicates_dropped = 0
        self._seen: Set[Tuple[str, int]] = set()
        self._load: Optional[CellLoadAccumulator] = None
        self._field: Optional[ContentionField] = None
        self._cohorts: Optional[Dict[str, CohortAggregate]] = None

    def offer_load(self, stripe_id: int,
                   accumulator: CellLoadAccumulator) -> bool:
        """Fold one pass-1 partial; False = duplicate, dropped."""
        if (PHASE_LOAD, stripe_id) in self._seen:
            self.duplicates_dropped += 1
            return False
        self._seen.add((PHASE_LOAD, stripe_id))
        if self._load is None:
            self._load = accumulator
        else:
            self._load.merge(accumulator)
        return True

    def offer_score(self, stripe_id: int,
                    partial: Dict[str, CohortAggregate]) -> bool:
        """Fold one pass-2 partial; False = duplicate, dropped."""
        if (PHASE_SCORE, stripe_id) in self._seen:
            self.duplicates_dropped += 1
            return False
        self._seen.add((PHASE_SCORE, stripe_id))
        if self._cohorts is None:
            self._cohorts = partial
        else:
            self._cohorts = {key: self._cohorts[key].merge(agg)
                             for key, agg in partial.items()}
        return True

    def offer_partial(self, world: StripeWorld, task: StripeTask,
                      partial: StripePartial) -> bool:
        """Validate, decode, and fold one shipped partial.

        The supervised path's single entry point: raises
        :class:`~repro.errors.FleetError` on an untrustworthy partial
        (caller quarantines and retries the stripe), returns False on
        a duplicate delivery.
        """
        validate_partial(world, task, partial)
        if task.phase == PHASE_LOAD:
            return self.offer_load(
                task.stripe_id,
                CellLoadAccumulator.from_jsonable(self.spec,
                                                  partial.payload))
        cohorts_data = partial.payload["cohorts"]
        assert isinstance(cohorts_data, dict)
        decoded = {key: CohortAggregate.from_jsonable(data)
                   for key, data in cohorts_data.items()}
        return self.offer_score(task.stripe_id, decoded)

    def finalize_load(self) -> ContentionField:
        """Prefix-sum the merged load into the global throttle field."""
        if self._load is None:
            raise ShardError("no load partials were merged — cannot "
                             "finalize the contention field")
        self._field = self._load.finalize()
        return self._field

    def result(self, n_sessions: int, contention: bool) -> FleetResult:
        """The finished :class:`FleetResult` after all stripes folded."""
        if self._cohorts is None:
            raise ShardError("no score partials were merged — the run "
                             "did not complete")
        field = self._field
        return FleetResult(
            spec_fingerprint=self.spec.fingerprint(),
            n_sessions=n_sessions,
            seed=self.seed,
            contention=contention,
            cohorts=self._cohorts,
            saturated_cell_epochs=(field.saturated_cell_epochs
                                   if field is not None else 0),
            peak_cell_load=(field.peak_load
                            if field is not None else 0.0),
        )
