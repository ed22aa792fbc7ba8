"""One fold over job outcomes and batches, and post-hoc trace analysis.

The fold — :class:`OutcomeTally`, :func:`tally`, :func:`batch_occupancy`
and :func:`rate` — is the single reduction both the in-process
:class:`repro.serve.report.ServeReport` and the trace summary derive their
status, retry, preemption, deadline, latency and occupancy numbers from.
It reads any :class:`Outcome`: ``JobResult`` satisfies the protocol as is,
and :func:`summarize_trace` decodes terminal trace events into
:class:`TracedOutcome`, so the two sides agree by construction.  Per-worker
numbers come from :func:`worker_activity` the same way: the scheduler folds
its batches, the summary the ``batch.execute`` spans (:func:`batch_spans`).

:func:`summarize_trace` reduces the raw event stream (as loaded by
:func:`repro.obs.export.load_trace_events`) into the views the
``repro trace summarize`` subcommand prints:

* **queue-depth time series** — from the ``queue.depth`` counter samples;
* **batch-occupancy histogram** — executed batch sizes, counted from the
  completed jobs of each ``(worker, batch_id)``;
* **per-tenant latency breakdown** — each completed job's latency split
  into *queue-wait* (before first dispatch, excluding retry waits),
  *execute* (dispatch → finish), and *retry-wait* (queueing re-accumulated
  after a fault requeue, located via ``job.requeued`` instants);
* **per-SLO-class deadline view** — deadlines met out of eligible
  completed jobs, and preemption displacements;
* **estimate-cache traffic** — ``hit`` counts disk hits too, which
  ``disk_hit`` breaks out, as in ``ServeReport``;
* **worker activity** — batches and busy cycles per worker track, from
  :func:`worker_activity`.

The per-tenant p50/p95 use :func:`repro.analysis.latency.summarize_latencies`
— the identical percentile definition ``ServeReport`` quotes — so numbers
derived from a trace match the report **exactly**, which the test-suite
pins.

>>> events = [
...     {"name": "queue.depth", "ph": "C", "ts": 0, "args": {"depth": 2}},
...     {"name": "job.completed", "ph": "i", "ts": 9, "tid": 0,
...      "args": {"job_id": "t0-j0", "tenant": "t0", "arrival_cycle": 0,
...               "latency_cycles": 9, "queue_cycles": 5, "attempts": 1,
...               "batch_id": 0}},
...     {"name": "job.completed", "ph": "i", "ts": 9, "tid": 0,
...      "args": {"job_id": "t0-j1", "tenant": "t0", "arrival_cycle": 2,
...               "latency_cycles": 7, "queue_cycles": 3, "attempts": 1,
...               "batch_id": 0}},
... ]
>>> summary = summarize_trace(events)
>>> summary["batch_occupancy"]
{'2': 1}
>>> summary["tenants"]["t0"]["latency"]["p95"]
8.9
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Protocol, TypeVar

from repro.analysis.latency import LatencySummary, summarize_latencies
from repro.analysis.reports import format_table

#: Terminal job event names (``job.<status>``), decoded into outcomes.
TERMINAL_EVENTS = (
    "job.completed",
    "job.rejected",
    "job.failed",
    "job.cancelled",
    "job.expired",
    "job.shed",
)

COMPLETED = "completed"


def rate(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when ``whole`` is zero.

    >>> rate(3, 4), rate(0, 0)
    (0.75, 0.0)
    """
    return part / whole if whole else 0.0


class Outcome(Protocol):
    """What the fold reads of one terminal job outcome.

    :class:`repro.serve.job.JobResult` satisfies it; so does
    :class:`TracedOutcome`.  ``worker_id`` and ``batch_id`` identify the
    executed batch of a completed job.  Grouping keys (tenant, SLO class,
    ...) are read by the caller's ``key`` function, not by the fold.
    """

    @property
    def status(self) -> str:
        ...

    @property
    def worker_id(self) -> int | None:
        ...

    @property
    def batch_id(self) -> int | None:
        ...

    @property
    def attempts(self) -> int:
        ...

    @property
    def preemptions(self) -> int:
        ...

    @property
    def latency_cycles(self) -> int | None:
        ...

    @property
    def queue_cycles(self) -> int | None:
        ...

    @property
    def deadline_met(self) -> bool | None:
        ...


class TracedOutcome(NamedTuple):
    """A terminal job event decoded from a trace (see :func:`decode_outcome`)."""

    job_id: str
    arrival_cycle: int
    status: str
    tenant: str
    slo: str
    worker_id: int
    batch_id: int | None
    attempts: int
    preemptions: int
    latency_cycles: int
    queue_cycles: int
    deadline_met: bool | None


@dataclass
class OutcomeTally:
    """Status counts and completion statistics of a group of outcomes.

    ``retries`` totals dispatches beyond the first; ``deadline_met`` out of
    ``deadline_eligible`` counts *completed* jobs that carried a deadline
    hint; ``latencies`` and ``queue_cycles`` list the completed jobs' cycles
    in fold order.

    >>> t = OutcomeTally()
    >>> t.add(TracedOutcome("j0", 0, "completed", "t0", "best-effort", 0, 0,
    ...                     2, 1, 9, 5, True))
    >>> t.add(TracedOutcome("j1", 0, "shed", "t0", "best-effort", 0, None,
    ...                     0, 0, 0, 0, None))
    >>> t.submitted, t.completed, t.count("shed"), t.retries, t.preemptions
    (2, 1, 1, 1, 1)
    >>> t.deadline_met, t.deadline_eligible, t.latencies
    (1, 1, [9])
    """

    statuses: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    preemptions: int = 0
    deadline_met: int = 0
    deadline_eligible: int = 0
    latencies: list[int] = field(default_factory=list)
    queue_cycles: list[int] = field(default_factory=list)

    @classmethod
    def of(cls, outcomes: Iterable[Outcome]) -> OutcomeTally:
        """Fold ``outcomes`` into one tally."""
        total = cls()
        for outcome in outcomes:
            total.add(outcome)
        return total

    def add(self, outcome: Outcome) -> None:
        """Fold one outcome in."""
        self.statuses[outcome.status] = self.statuses.get(outcome.status, 0) + 1
        self.retries += max(0, outcome.attempts - 1)
        self.preemptions += outcome.preemptions
        if outcome.status != COMPLETED:
            return
        if outcome.latency_cycles is not None:
            self.latencies.append(outcome.latency_cycles)
        if outcome.queue_cycles is not None:
            self.queue_cycles.append(outcome.queue_cycles)
        if outcome.deadline_met is not None:
            self.deadline_eligible += 1
            self.deadline_met += outcome.deadline_met

    def count(self, status: str) -> int:
        """Outcomes that ended with ``status``."""
        return self.statuses.get(status, 0)

    @property
    def submitted(self) -> int:
        return sum(self.statuses.values())

    @property
    def completed(self) -> int:
        return self.count(COMPLETED)

    @property
    def latency(self) -> LatencySummary | None:
        """Order statistics of the completed latencies (None when none)."""
        return summarize_latencies(self.latencies) if self.latencies else None


OutcomeT = TypeVar("OutcomeT", bound=Outcome)
KeyT = TypeVar("KeyT", bound=Hashable)


def tally(
    outcomes: Iterable[OutcomeT], key: Callable[[OutcomeT], KeyT]
) -> dict[KeyT, OutcomeTally]:
    """Group ``outcomes`` by ``key`` and fold each group (first-seen order)."""
    groups: dict[KeyT, OutcomeTally] = {}
    for outcome in outcomes:
        group = key(outcome)
        if group not in groups:
            groups[group] = OutcomeTally()
        groups[group].add(outcome)
    return groups


def batch_occupancy(outcomes: Iterable[Outcome]) -> dict[int, int]:
    """Executed batch size -> number of batches, ascending by size.

    A batch's size is the number of its jobs that completed, keyed by
    ``(worker_id, batch_id)``: a preemption cut or a worker fault shrinks
    the batch that actually executed.
    """
    sizes = Counter(
        (outcome.worker_id, outcome.batch_id)
        for outcome in outcomes
        if outcome.status == COMPLETED and outcome.batch_id is not None
    )
    return dict(sorted(Counter(sizes.values()).items()))


@dataclass
class WorkerTally:
    """One worker's batches, as :func:`worker_activity` folds them.

    Every dispatch counts, cut ones included; ``busy_cycles`` runs from each
    start to where the worker stopped, ``failures`` counts fault cuts.
    """

    batches: int = 0
    jobs: int = 0
    busy_cycles: int = 0
    failures: int = 0


def worker_activity(
    rows: Iterable[tuple[KeyT, int, int, int, bool]],
) -> dict[KeyT, WorkerTally]:
    """Fold ``(worker, start, end, completed, faulted)`` batch rows per worker.

    >>> worker_activity([(0, 0, 124, 1, False), (0, 124, 186, 0, True)])
    {0: WorkerTally(batches=2, jobs=1, busy_cycles=186, failures=1)}
    """
    tallies: dict[KeyT, WorkerTally] = {}
    for worker, start, end, completed, faulted in rows:
        worker_tally = tallies.setdefault(worker, WorkerTally())
        worker_tally.batches += 1
        worker_tally.jobs += completed
        worker_tally.busy_cycles += end - start
        worker_tally.failures += faulted
    return tallies


def _arg(event: dict[str, Any], key: str, default: Any = None) -> Any:
    args = event.get("args")
    if isinstance(args, dict):
        return args.get(key, default)
    return default


def decode_outcome(event: dict[str, Any]) -> TracedOutcome:
    """Decode one terminal event written by ``JobResult.trace_events()``.

    The worker is the event's ``tid`` (one thread track per worker);
    traces written before the SLO args existed decode as best-effort.
    """
    batch_id = _arg(event, "batch_id")
    met = _arg(event, "deadline_met")
    return TracedOutcome(
        job_id=str(_arg(event, "job_id")),
        arrival_cycle=int(_arg(event, "arrival_cycle", 0)),
        status=str(event["name"]).removeprefix("job."),
        tenant=str(_arg(event, "tenant", "?")),
        slo=str(_arg(event, "slo", "best-effort")),
        worker_id=int(event.get("tid", 0)),
        batch_id=None if batch_id is None else int(batch_id),
        attempts=int(_arg(event, "attempts", 0) or 0),
        preemptions=int(_arg(event, "preemptions", 0) or 0),
        latency_cycles=int(_arg(event, "latency_cycles", 0) or 0),
        queue_cycles=int(_arg(event, "queue_cycles", 0) or 0),
        deadline_met=None if met is None else bool(met),
    )


def _queue_depth_view(events: list[dict[str, Any]]) -> dict[str, Any]:
    series = [
        (int(event["ts"]), int(_arg(event, "depth", 0)))
        for event in events
        if event.get("ph") == "C" and event.get("name") == "queue.depth"
    ]
    if not series:
        return {"samples": 0, "max": 0, "mean": 0.0, "final": 0}
    depths = [depth for _, depth in series]
    return {
        "samples": len(series),
        "max": max(depths),
        "mean": sum(depths) / len(depths),
        "final": depths[-1],
    }


def _tenant_views(
    events: list[dict[str, Any]], outcomes: list[TracedOutcome]
) -> dict[str, dict[str, Any]]:
    first_requeue: dict[str, int] = {}
    for event in events:
        if event.get("name") == "job.requeued":
            job_id = str(_arg(event, "job_id"))
            cycle = int(event["ts"])
            first_requeue[job_id] = min(
                cycle, first_requeue.get(job_id, cycle)
            )

    # Per tenant: [queue-wait, execute, retry-wait] cycles.
    split: dict[str, list[int]] = {}
    for outcome in outcomes:
        if outcome.status != COMPLETED:
            continue
        queued = outcome.queue_cycles
        retry_wait = 0
        if outcome.job_id in first_requeue:
            start = outcome.arrival_cycle + queued
            retry_wait = max(0, start - first_requeue[outcome.job_id])
        cycles = split.setdefault(outcome.tenant, [0, 0, 0])
        cycles[0] += queued - retry_wait
        cycles[1] += outcome.latency_cycles - queued
        cycles[2] += retry_wait

    views: dict[str, dict[str, Any]] = {}
    for tenant, group in sorted(tally(outcomes, lambda o: o.tenant).items()):
        queue_wait, execute, retry_wait = split.get(tenant, [0, 0, 0])
        latency = group.latency
        views[tenant] = {
            "completed": group.completed,
            "terminal": dict(sorted(group.statuses.items())),
            "queue_wait_cycles": queue_wait,
            "execute_cycles": execute,
            "retry_wait_cycles": retry_wait,
            "latency": None if latency is None else latency.to_dict(),
        }
    return views


def _cache_view(events: list[dict[str, Any]]) -> dict[str, int]:
    counts = {"hit": 0, "miss": 0, "evict": 0, "disk_hit": 0}
    for event in events:
        name = str(event.get("name", ""))
        if name.startswith("cache."):
            kind = name.removeprefix("cache.")
            if kind in counts:
                counts[kind] += 1
            # Disk hits are a subset of hits, as in ServeReport.cache_hits.
            if kind == "disk_hit":
                counts["hit"] += 1
    return counts


def batch_spans(events: list[dict[str, Any]]) -> list[tuple[str, int, int, int, bool]]:
    """The ``batch.execute`` spans as :func:`worker_activity` rows (worker = track)."""
    return [
        (
            f"{int(event.get('pid', 0))}:{int(event.get('tid', 0))}",
            int(event["ts"]),
            int(event["ts"]) + int(event.get("dur", 0)),
            int(_arg(event, "completed", 0)),
            bool(_arg(event, "faulted", False)),
        )
        for event in events
        if event.get("name") == "batch.execute" and event.get("ph") == "X"
    ]


def summarize_trace(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Reduce exported trace events into the summary mapping.

    Accepts the event dicts returned by
    :func:`repro.obs.export.load_trace_events` (either export format).
    """
    outcomes = [
        decode_outcome(event)
        for event in events
        if event.get("name") in TERMINAL_EVENTS
    ]
    return {
        "events": len(events),
        "queue_depth": _queue_depth_view(events),
        "batch_occupancy": {
            str(size): count for size, count in batch_occupancy(outcomes).items()
        },
        "tenants": _tenant_views(events, outcomes),
        "slo": {
            slo: {
                "submitted": group.submitted,
                "completed": group.completed,
                "deadline_met": group.deadline_met,
                "deadline_eligible": group.deadline_eligible,
                "preemptions": group.preemptions,
                "deadline_hit_rate": rate(
                    group.deadline_met, group.deadline_eligible
                ),
            }
            for slo, group in sorted(tally(outcomes, lambda o: o.slo).items())
        },
        "cache": _cache_view(events),
        "workers": {
            track: {"batches": worker.batches, "busy_cycles": worker.busy_cycles}
            for track, worker in sorted(worker_activity(batch_spans(events)).items())
        },
    }


def format_trace_summary(summary: dict[str, Any]) -> str:
    """Render :func:`summarize_trace` output as fixed-width text tables.

    >>> text = format_trace_summary(summarize_trace([]))
    >>> "queue depth" in text
    True
    """
    depth = summary["queue_depth"]
    lines = [
        f"events: {summary['events']}",
        "",
        f"queue depth: samples={depth['samples']} max={depth['max']} "
        f"mean={depth['mean']:.2f} final={depth['final']}",
    ]
    occupancy = summary["batch_occupancy"]
    if occupancy:
        lines += [
            "",
            "batch occupancy:",
            format_table(
                ("batch size", "batches"),
                [(size, count) for size, count in occupancy.items()],
            ),
        ]
    tenants = summary["tenants"]
    if tenants:
        rows = []
        for tenant, view in tenants.items():
            latency = view["latency"] or {"p50": 0.0, "p95": 0.0}
            rows.append(
                (
                    tenant,
                    view["completed"],
                    round(latency["p50"]),
                    round(latency["p95"]),
                    view["queue_wait_cycles"],
                    view["execute_cycles"],
                    view["retry_wait_cycles"],
                )
            )
        lines += [
            "",
            "per-tenant latency breakdown (cycles):",
            format_table(
                ("tenant", "completed", "p50", "p95", "queue-wait",
                 "execute", "retry-wait"),
                rows,
            ),
        ]
    slo = summary.get("slo", {})
    # The deadline-hit view appears only once an SLO class beyond plain
    # best-effort (or a deadline/preemption outcome) is in the trace, so
    # summaries of older or SLO-free traces render exactly as before.
    if any(
        name != "best-effort" or view["deadline_eligible"] or view["preemptions"]
        for name, view in slo.items()
    ):
        lines += [
            "",
            "per-SLO-class deadlines:",
            format_table(
                ("slo class", "submitted", "completed", "deadlines met",
                 "hit rate", "preempted"),
                [
                    (
                        name,
                        view["submitted"],
                        view["completed"],
                        f"{view['deadline_met']}/{view['deadline_eligible']}",
                        round(view["deadline_hit_rate"], 4),
                        view["preemptions"],
                    )
                    for name, view in slo.items()
                ],
            ),
        ]
    cache = summary["cache"]
    # Older summaries (and store-less runs) have no disk_hit key; only
    # surface the disk layer when it actually served lookups.
    disk_hits = int(cache.get("disk_hit", 0))
    lines += [
        "",
        f"cache: hit={cache['hit']} miss={cache['miss']} "
        f"evict={cache['evict']}"
        + (f" disk_hit={disk_hits}" if disk_hits else ""),
    ]
    workers = summary["workers"]
    if workers:
        lines += [
            "",
            "worker activity:",
            format_table(
                ("track (pid:tid)", "batches", "busy cycles"),
                [
                    (track, view["batches"], view["busy_cycles"])
                    for track, view in workers.items()
                ],
            ),
        ]
    return "\n".join(lines)


__all__ = [
    "TERMINAL_EVENTS",
    "Outcome",
    "OutcomeTally",
    "TracedOutcome",
    "WorkerTally",
    "batch_occupancy",
    "batch_spans",
    "decode_outcome",
    "format_trace_summary",
    "rate",
    "summarize_trace",
    "tally",
    "worker_activity",
]
