"""Statistics and bookkeeping shared by every benchmark workload.

Pure functions and two small accumulators, kept apart from the workloads so
the tests in ``test_perfbench.py`` can pin them without running anything.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.latency import percentile

#: Percentile levels the tail rule may fall back through, highest first.
TAIL_LEVELS = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail percentile chosen by the at-least-ten-beyond rule."""

    level: float
    value: float
    samples: int
    beyond: int

    def describe(self) -> str:
        return f"p{self.level:g} of {self.samples} samples ({self.beyond} beyond)"


def tail_percentile(values: Sequence[float]) -> Tail:
    """The highest percentile up to p99 with :data:`MIN_BEYOND` samples past it.

    A p99 over 200 samples rests on two values, so the rule falls back
    through :data:`TAIL_LEVELS` until at least ``MIN_BEYOND`` samples rank
    above the percentile's position.  The value itself is
    :func:`repro.analysis.latency.percentile`, the serving report's
    definition.  Raises ``ValueError`` when even the median lacks that
    support.
    """
    samples = len(values)
    for level in TAIL_LEVELS:
        beyond = samples - math.ceil(level / 100.0 * samples)
        if beyond >= MIN_BEYOND:
            return Tail(level, percentile(values, level), samples, beyond)
    raise ValueError(
        f"{samples} samples cannot support a tail percentile with "
        f"{MIN_BEYOND} samples beyond it"
    )


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def rate_wall(reps: Sequence[Rep]) -> float:
    """Wall time of one repetition, as the benchmark's rates divide by it.

    A repetition timed whole (one ``serve()``, or one stream and its
    ``drain()``) runs on the scheduler's thread pool, and stops whenever
    the hypervisor stops the CPU that holds the interpreter lock: its wall
    time grows with the CPU time stolen from the machine meanwhile.  It is
    charged its wall time minus that steal (at most half the wall time),
    and the median over repetitions is taken.  A repetition timed in parts
    is a fixed sequence of independent single-threaded calls: each part
    gets one draw per repetition, and the fastest draws of each part are
    summed, so a slow spell has to cover the same part in every repetition
    to show.
    """
    if reps[0].parts_s:
        return sum(min(draws) for draws in zip(*(rep.parts_s for rep in reps)))
    return median([rep.wall_s - min(rep.steal_s, rep.wall_s / 2) for rep in reps])


@dataclass
class Rep:
    """One timed repetition of a workload.

    ``sim`` holds the deterministic outputs the :class:`DeterminismGuard`
    compares across repetitions; ``steal_s`` the CPU time the hypervisor
    took from the machine during it; ``parts_s`` the wall time of each
    separately timed part, when the repetition is a fixed sequence of
    independent calls; ``host`` holds wall-clock extras; ``layers`` holds
    per-layer metrics (traced repetitions only); ``payload`` keeps the
    program's outputs until they are checked.
    """

    wall_s: float
    operations: int
    completed: int
    macs: int
    sim: dict[str, object]
    steal_s: float = 0.0
    parts_s: tuple[float, ...] = ()
    host: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    payload: object = None


@dataclass
class Outcome:
    """Operations attempted and failed in one benchmark run.

    ``failed`` counts jobs that did not complete, output checks that
    failed and determinism mismatches; each failure keeps a one-line
    reason so a failing run says why.
    """

    attempted: int = 0
    reasons: list[str] = field(default_factory=list)

    def attempt(self, operations: int, completed: int) -> None:
        """Record ``operations`` submitted, of which ``completed`` finished."""
        if completed > operations:
            raise ValueError(f"completed {completed} > attempted {operations}")
        self.attempted += operations
        for _ in range(operations - completed):
            self.reasons.append("operation did not complete")

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(reason)

    @property
    def failed(self) -> int:
        return len(self.reasons)

    @property
    def failed_share(self) -> float:
        if self.attempted < 1:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted


class DeterminismGuard:
    """Requires deterministic values to repeat exactly across repetitions.

    The first observation is the reference; any later value that differs
    is recorded as a failure on the run's :class:`Outcome`, never averaged.
    """

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self.reference: dict[str, object] | None = None

    def observe(self, label: str, values: dict[str, object]) -> None:
        if self.reference is None:
            self.reference = dict(values)
            return
        for key in sorted(set(self.reference) | set(values)):
            expected = self.reference.get(key)
            actual = values.get(key)
            if expected != actual:
                self.outcome.fail(
                    f"{label}: deterministic {key} changed "
                    f"from {expected!r} to {actual!r}"
                )
